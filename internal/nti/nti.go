// Package nti models the Network Time Interface MA-Module (paper §3).
//
// The NTI couples a UTCSU, 256 KB of dual-ported SRAM and a CPLD onto an
// MA-Module mezzanine interface. The CPLD decodes two address regions
// onto the same physical memory (Fig. 6): plain CPU accesses, and COMCO
// accesses with the timestamping side effects of §3.1/§3.4:
//
//   - a COMCO *read* of offset 0x14 inside a transmit header raises the
//     TRANSMIT trigger; the sampled UTCSU time/accuracy registers are
//     transparently mapped over offsets 0x18/0x1C/0x20, so they ride into
//     the outgoing packet without software involvement;
//   - a COMCO *write* of offset 0x1C inside a receive header raises the
//     RECEIVE trigger and latches the header's base address into the
//     Receive Header Base I/O register, so the ISR can associate the
//     sampled stamp with the right packet even for back-to-back CSPs
//     (footnote 4);
//   - the three UTCSU interrupt pins are folded into the M-Module's
//     single vectorized interrupt, with the pin state encoded in the
//     vector and an enable register written at the end of each ISR.
//
// The NTI owns the SRAM, so it is also where lazily deposited COMCO
// receive bursts (DMABurst) are settled: every CPU access to SRAM first
// writes each DMA word whose nominal time has come.
package nti

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ntisim/internal/csp"
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

// Memory map of the COMCO-visible 256 KB region (Fig. 6). The same
// physical SRAM appears again at CPUBase for plain accesses.
const (
	MemSize = 256 * 1024

	TxHeadersBase = 0x00000 // 4 KB of 64-byte transmit headers
	TxHeadersSize = 4 * 1024
	RxHeadersBase = TxHeadersBase + TxHeadersSize // 8 KB of receive headers
	RxHeadersSize = 8 * 1024
	DataBase      = RxHeadersBase + RxHeadersSize // 60 KB data buffers
	DataSize      = 60 * 1024
	SystemBase    = DataBase + DataSize // 184 KB system structures
	SystemSize    = MemSize - SystemBase

	HeaderSize   = 64
	NumTxHeaders = TxHeadersSize / HeaderSize
	NumRxHeaders = RxHeadersSize / HeaderSize

	// UTCSURegBase is the 512-byte UTCSU register window, decoded right
	// after the SRAM in the CPU-visible memory space (Fig. 6: "followed
	// by a 512 byte segment containing the UTCSU registers").
	UTCSURegBase = MemSize
	UTCSURegSize = utcsu.RegWindowSize
)

// I/O-space register offsets (Fig. 8).
const (
	IORxHeaderBase = 0x00
	IOVectorBase   = 0x02
	IOIntEnable    = 0x04
	IOSPROM        = 0xFE
)

// SSU channel assignment: the NTI wires the transmit trigger of network
// channel c to SSU 2c and the receive trigger to SSU 2c+1. The UTCSU's
// six SSUs thus support up to three independent channels — "to
// facilitate fault-tolerant (redundant) communications architectures or
// gateway nodes" (paper §3.3).
const (
	SSUTransmit = 0 // channel 0's transmit unit
	SSUReceive  = 1 // channel 0's receive unit
	NumChannels = 3
)

// ssuTx/ssuRx map a channel to its SSU indices.
func ssuTx(ch int) int { return 2 * ch }
func ssuRx(ch int) int { return 2*ch + 1 }

// Interrupt pin bits encoded into the delivered vector (paper §3.4:
// "the final vector also includes the state of the three UTCSU interrupt
// pins INTT, INTN, and INTA").
const (
	VecINTN = 1 << 0
	VecINTT = 1 << 1
	VecINTA = 1 << 2
)

// NTI is one module instance.
type NTI struct {
	u   *utcsu.UTCSU
	mem [MemSize]byte

	ch [NumChannels]channelState

	vectorBase uint8 // I/O reg 0x02
	intEnabled bool  // I/O reg 0x04

	sprom [256]byte

	onInterrupt func(vector uint8)

	lostInts uint64

	// dma lists the COMCO receive bursts with words still to deposit, in
	// arrival order; dmaOverlaps counts CPU writes that landed on one of
	// those words (see DMAWriteOverlaps).
	dma         []DMABurst
	dmaOverlaps uint64
}

// DMABurst is a COMCO receive burst whose SRAM writes are deposited
// lazily: the controller keeps the words staged and writes each one, in
// order and through COMCOWrite32, once its nominal DMA time has come.
// The NTI settles every registered burst before any CPU access to SRAM,
// so the CPU observes the same memory as under word-by-word DMA.
type DMABurst interface {
	// Settle deposits every word whose nominal time is at or before now.
	Settle()
	// PendingOverlaps reports whether [addr, addr+n) covers a word the
	// burst has yet to deposit.
	PendingOverlaps(addr, n uint32) bool
}

// BeginDMA registers a burst with words still to deposit.
func (n *NTI) BeginDMA(b DMABurst) { n.dma = append(n.dma, b) }

// EndDMA deregisters a burst once it has deposited its last word.
func (n *NTI) EndDMA(b DMABurst) {
	if i := slices.Index(n.dma, b); i >= 0 {
		n.dma = slices.Delete(n.dma, i, i+1)
	}
}

// SettleDMA deposits every due word of every registered burst.
func (n *NTI) SettleDMA() {
	for _, b := range n.dma {
		b.Settle()
	}
}

// settleForWrite settles the bursts before a CPU write of size bytes at
// addr, counting the write if it lands on a word still to be deposited.
func (n *NTI) settleForWrite(addr uint32, size int) {
	if len(n.dma) == 0 {
		return
	}
	n.SettleDMA()
	for _, b := range n.dma {
		if b.PendingOverlaps(addr, uint32(size)) {
			n.dmaOverlaps++
			return
		}
	}
}

// DMAWriteOverlaps reports how many CPU writes landed on SRAM words an
// active COMCO burst had yet to deposit. Those words later overwrite
// what the CPU wrote. For the stamp-move ISR this means DMA words 13–14
// replace the moved receive stamp in RxSave with the sender's bytes,
// which the CI task then consumes as a valid stamp.
func (n *NTI) DMAWriteOverlaps() uint64 { return n.dmaOverlaps }

// channelState holds one network channel's CPLD state: the latched
// transmit sample (transparently mapped over the stamp block of the
// header being fetched) and the Receive Header Base latch.
type channelState struct {
	txLatchValid bool
	txStampWord  uint32
	txMacroWord  uint32
	txAlphaWord  uint32
	rxHeaderBase uint32
	txTriggers   uint64
	rxTriggers   uint64
}

// New builds an NTI around the given UTCSU and programs the CPLD's
// interrupt forwarding.
func New(u *utcsu.UTCSU) *NTI {
	n := &NTI{u: u}
	copy(n.sprom[:], "NTI MA-Module rev 1.0 TU Wien 1997\x00")
	u.OnInterrupt(n.forwardInterrupt)
	for _, l := range []utcsu.IntLine{utcsu.INTN, utcsu.INTT, utcsu.INTA} {
		u.EnableInt(l, true)
	}
	return n
}

// UTCSU returns the on-board chip.
func (n *NTI) UTCSU() *utcsu.UTCSU { return n.u }

// Per-channel header partitions: the CPLD decodes the channel from the
// header's address range.
const (
	TxHeadersPerCh = NumTxHeaders / NumChannels
	RxHeadersPerCh = NumRxHeaders / NumChannels
)

// TxHeaderAddr returns the base address of channel 0's transmit header i.
func TxHeaderAddr(i int) uint32 { return TxHeaderAddrCh(0, i) }

// RxHeaderAddr returns the base address of channel 0's receive header i.
func RxHeaderAddr(i int) uint32 { return RxHeaderAddrCh(0, i) }

// TxHeaderAddrCh returns the base address of transmit header i of the
// given channel's partition.
func TxHeaderAddrCh(ch, i int) uint32 {
	if ch < 0 || ch >= NumChannels || i < 0 || i >= TxHeadersPerCh {
		panic(fmt.Sprintf("nti: tx header %d/%d out of range", ch, i))
	}
	return TxHeadersBase + uint32(ch*TxHeadersPerCh+i)*HeaderSize
}

// RxHeaderAddrCh returns the base address of receive header i of the
// given channel's partition.
func RxHeaderAddrCh(ch, i int) uint32 {
	if ch < 0 || ch >= NumChannels || i < 0 || i >= RxHeadersPerCh {
		panic(fmt.Sprintf("nti: rx header %d/%d out of range", ch, i))
	}
	return RxHeadersBase + uint32(ch*RxHeadersPerCh+i)*HeaderSize
}

// channelOfTx returns the channel owning a transmit-header index.
func channelOfTx(idx uint32) int { return int(idx) / TxHeadersPerCh % NumChannels }

// channelOfRx returns the channel owning a receive-header index.
func channelOfRx(idx uint32) int { return int(idx) / RxHeadersPerCh % NumChannels }

// Data-buffer slots: each receive header has a matching slot in the
// Data Buffers section where the COMCO deposits payload beyond the
// 64-byte header (ordinary packet data, Fig. 6).
const DataSlotSize = DataSize / NumRxHeaders // 480 bytes

// DataSlotAddr returns the data-buffer slot paired with receive header
// i of a channel.
func DataSlotAddr(ch, i int) uint32 {
	if ch < 0 || ch >= NumChannels || i < 0 || i >= RxHeadersPerCh {
		panic(fmt.Sprintf("nti: data slot %d/%d out of range", ch, i))
	}
	return DataBase + uint32(ch*RxHeadersPerCh+i)*DataSlotSize
}

// inTxHeaders reports whether addr lies in the transmit header section,
// returning the offset within its header.
func inTxHeaders(addr uint32) (off uint32, ok bool) {
	if addr >= TxHeadersBase && addr < TxHeadersBase+TxHeadersSize {
		return addr % HeaderSize, true
	}
	return 0, false
}

func inRxHeaders(addr uint32) (off uint32, ok bool) {
	if addr >= RxHeadersBase && addr < RxHeadersBase+RxHeadersSize {
		return (addr - RxHeadersBase) % HeaderSize, true
	}
	return 0, false
}

// CPU accesses: plain memory, no special functionality (paper §3.1:
// "CPU-accesses are just plain memory accesses"). Each SRAM access first
// settles the pending DMA bursts.

// CPURead copies out of the SRAM.
func (n *NTI) CPURead(addr uint32, dst []byte) {
	n.SettleDMA()
	copy(dst, n.mem[addr:])
}

// CPUWrite copies into the SRAM.
func (n *NTI) CPUWrite(addr uint32, src []byte) {
	n.settleForWrite(addr, len(src))
	copy(n.mem[addr:], src)
}

// CPURead32/CPUWrite32 are word-access conveniences. Addresses in the
// UTCSU register window (UTCSURegBase..+512) are decoded to the chip's
// bus interface; everything below is plain SRAM.
func (n *NTI) CPURead32(addr uint32) uint32 {
	if addr >= UTCSURegBase && addr < UTCSURegBase+UTCSURegSize {
		return n.u.ReadReg32(addr - UTCSURegBase)
	}
	n.SettleDMA()
	return binary.BigEndian.Uint32(n.mem[addr:])
}

func (n *NTI) CPUWrite32(addr uint32, v uint32) {
	if addr >= UTCSURegBase && addr < UTCSURegBase+UTCSURegSize {
		n.u.WriteReg32(addr-UTCSURegBase, v)
		return
	}
	n.settleForWrite(addr, 4)
	binary.BigEndian.PutUint32(n.mem[addr:], v)
}

// COMCORead32 performs a COMCO (DMA) read with the CPLD's special
// functionality: reading the trigger word of a transmit header samples
// the UTCSU into the latch; reading the stamp block returns the latched
// registers instead of memory.
func (n *NTI) COMCORead32(addr uint32) uint32 {
	if off, ok := inTxHeaders(addr); ok {
		ch := channelOfTx((addr - TxHeadersBase) / HeaderSize)
		c := &n.ch[ch]
		switch off {
		case csp.OffTxTrig:
			stamp, _ := n.u.SSU(ssuTx(ch)).Trigger(true)
			am, ap, _, _ := ssuAlphas(n.u, ssuTx(ch))
			c.txStampWord, c.txMacroWord = stamp.Words()
			c.txAlphaWord = uint32(am)<<16 | uint32(ap)
			c.txLatchValid = true
			c.txTriggers++
		case csp.OffTxStamp:
			if c.txLatchValid {
				return c.txStampWord
			}
		case csp.OffTxMacro:
			if c.txLatchValid {
				return c.txMacroWord
			}
		case csp.OffTxAlpha:
			if c.txLatchValid {
				return c.txAlphaWord
			}
		}
	}
	return binary.BigEndian.Uint32(n.mem[addr:])
}

// ssuAlphas reads the alpha registers sampled by the unit's last trigger.
func ssuAlphas(u *utcsu.UTCSU, i int) (timefmt.Alpha, timefmt.Alpha, timefmt.Stamp, uint64) {
	st, am, ap, seq := u.SSU(i).Read()
	return am, ap, st, seq
}

// COMCOWrite32 performs a COMCO (DMA) write: writing the receive trigger
// offset inside a receive header raises RECEIVE and latches the header
// base address for the ISR.
func (n *NTI) COMCOWrite32(addr uint32, v uint32) {
	binary.BigEndian.PutUint32(n.mem[addr:], v)
	if off, ok := inRxHeaders(addr); ok && off == csp.RxTrigOffset {
		ch := channelOfRx((addr - RxHeadersBase) / HeaderSize)
		n.u.SSU(ssuRx(ch)).Trigger(true)
		n.ch[ch].rxHeaderBase = addr - off
		n.ch[ch].rxTriggers++
	}
}

// ReadRxSample returns channel 0's receive SSU sample registers together
// with the latched Receive Header Base — what the reception ISR reads
// first.
func (n *NTI) ReadRxSample() (stamp timefmt.Stamp, alphaM, alphaP timefmt.Alpha, headerBase uint32, seq uint64) {
	return n.ReadRxSampleCh(0)
}

// ReadRxSampleCh is ReadRxSample for an arbitrary channel.
func (n *NTI) ReadRxSampleCh(ch int) (stamp timefmt.Stamp, alphaM, alphaP timefmt.Alpha, headerBase uint32, seq uint64) {
	st, am, ap, sq := n.u.SSU(ssuRx(ch)).Read()
	return st, am, ap, n.ch[ch].rxHeaderBase, sq
}

// I/O space (Fig. 8).

// ReadIO reads an I/O-space register.
func (n *NTI) ReadIO(off uint32) uint32 {
	switch off {
	case IORxHeaderBase:
		return n.ch[0].rxHeaderBase
	case IOVectorBase:
		return uint32(n.vectorBase)
	case IOIntEnable:
		if n.intEnabled {
			return 1
		}
		return 0
	case IOSPROM:
		return uint32(n.sprom[0])
	}
	return 0
}

// WriteIO writes an I/O-space register.
func (n *NTI) WriteIO(off uint32, v uint32) {
	switch off {
	case IOVectorBase:
		n.vectorBase = uint8(v)
	case IOIntEnable:
		n.intEnabled = v != 0
	}
}

// SPROM returns the serial PROM's identification record (the M-Module
// spec's id/revision block, read bit-serially through I/O 0xFE on real
// hardware).
func (n *NTI) SPROM() []byte { return n.sprom[:] }

// Interrupt forwarding: the CPLD folds the three UTCSU pins onto the
// M-Module's single interrupt line, composing the vector from the
// programmed base and the pin state. The NTI disables further interrupts
// until software re-enables them via the I/O register (paper §3.4),
// modelling the usual "write 0x04 just before RTE" discipline.
func (n *NTI) forwardInterrupt(line utcsu.IntLine, source string) {
	if !n.intEnabled {
		n.lostInts++
		return
	}
	n.intEnabled = false
	var pin uint8
	switch line {
	case utcsu.INTN:
		pin = VecINTN
	case utcsu.INTT:
		pin = VecINTT
	case utcsu.INTA:
		pin = VecINTA
	}
	if n.onInterrupt != nil {
		n.onInterrupt(n.vectorBase | pin)
	}
}

// OnInterrupt installs the carrier-board interrupt handler (the kernel's
// first-level dispatcher). Interrupts stay disabled until EnableInts.
func (n *NTI) OnInterrupt(fn func(vector uint8)) { n.onInterrupt = fn }

// EnableInts is the ISR-exit write to the Dis/Enable Interrupt Logic
// register.
func (n *NTI) EnableInts() { n.WriteIO(IOIntEnable, 1) }

// Stats reports channel 0's trigger counters and lost interrupts.
func (n *NTI) Stats() (txTriggers, rxTriggers, lostInts uint64) {
	return n.ch[0].txTriggers, n.ch[0].rxTriggers, n.lostInts
}

// ChannelStats reports one channel's trigger counters.
func (n *NTI) ChannelStats(ch int) (txTriggers, rxTriggers uint64) {
	return n.ch[ch].txTriggers, n.ch[ch].rxTriggers
}
