package nti

import (
	"bytes"
	"testing"

	"ntisim/internal/csp"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/timefmt"
	"ntisim/internal/utcsu"
)

func rig(seed uint64) (*sim.Simulator, *utcsu.UTCSU, *NTI) {
	s := sim.New(seed)
	o := oscillator.New(s, oscillator.Ideal(10e6), "nti")
	u := utcsu.New(s, utcsu.Config{Osc: o})
	return s, u, New(u)
}

func TestMemoryMapLayout(t *testing.T) {
	// Fig. 6: four sections covering the full 256 KB exactly.
	if TxHeadersSize+RxHeadersSize+DataSize+SystemSize != MemSize {
		t.Error("sections do not tile the 256 KB region")
	}
	if MemSize != 256*1024 {
		t.Errorf("memory size %d, paper says 256 KB (2x 64Kx16 SRAM)", MemSize)
	}
	if NumTxHeaders != 64 || NumRxHeaders != 128 {
		t.Errorf("header counts %d/%d", NumTxHeaders, NumRxHeaders)
	}
}

func TestCPUAccessPlain(t *testing.T) {
	_, _, n := rig(1)
	data := []byte{1, 2, 3, 4}
	n.CPUWrite(DataBase, data)
	out := make([]byte, 4)
	n.CPURead(DataBase, out)
	if !bytes.Equal(data, out) {
		t.Error("CPU read/write mismatch")
	}
	n.CPUWrite32(SystemBase, 0xDEADBEEF)
	if n.CPURead32(SystemBase) != 0xDEADBEEF {
		t.Error("CPU word access mismatch")
	}
	// CPU access to trigger offsets has no special effect.
	n.CPUWrite32(RxHeaderAddr(0)+csp.RxTrigOffset, 0x1234)
	if _, rx, _ := n.Stats(); rx != 0 {
		t.Error("CPU write raised RECEIVE trigger")
	}
}

func TestTransmitTriggerAndTransparentMapping(t *testing.T) {
	s, u, n := rig(2)
	s.RunUntil(1.25)
	base := TxHeaderAddr(3)
	// Software wrote arbitrary bytes into the stamp block; the COMCO
	// read of the trigger offset must latch the UTCSU sample, and reads
	// of the stamp block must return the registers, not memory.
	n.CPUWrite32(base+csp.OffTxStamp, 0x11111111)
	n.CPUWrite32(base+csp.OffTxMacro, 0x22222222)
	n.CPUWrite32(base+csp.OffTxAlpha, 0x33333333)
	u.SetAlpha(timefmt.Duration(5), timefmt.Duration(9))
	s.RunUntil(1.2501)

	_ = n.COMCORead32(base + csp.OffTxTrig)
	ts := n.COMCORead32(base + csp.OffTxStamp)
	ms := n.COMCORead32(base + csp.OffTxMacro)
	al := n.COMCORead32(base + csp.OffTxAlpha)
	st, ok := timefmt.FromWords(ts, ms)
	if !ok {
		t.Fatal("mapped stamp fails checksum")
	}
	if d := st.Seconds() - 1.2501; d < 0 || d > 1e-6 {
		t.Errorf("mapped stamp offset %v", d)
	}
	if al>>16 != 5 || al&0xFFFF != 9 {
		t.Errorf("mapped alpha word %08x", al)
	}
	if tx, _, _ := n.Stats(); tx != 1 {
		t.Errorf("tx triggers = %d", tx)
	}
	// A COMCO read of a non-trigger offset returns plain memory.
	n.CPUWrite32(base+0x00, 0xAAAA5555)
	if n.COMCORead32(base+0x00) != 0xAAAA5555 {
		t.Error("plain COMCO read altered")
	}
}

func TestTransmitMappingRequiresTrigger(t *testing.T) {
	_, _, n := rig(3)
	base := TxHeaderAddr(0)
	n.CPUWrite32(base+csp.OffTxStamp, 0x77777777)
	// Without a prior trigger the stamp block reads back memory.
	if n.COMCORead32(base+csp.OffTxStamp) != 0x77777777 {
		t.Error("stamp block mapped before any trigger")
	}
}

func TestReceiveTriggerLatchesHeaderBase(t *testing.T) {
	s, _, n := rig(4)
	s.RunUntil(2)
	base := RxHeaderAddr(5)
	n.COMCOWrite32(base+csp.RxTrigOffset, 0xCAFEBABE)
	if n.CPURead32(base+csp.RxTrigOffset) != 0xCAFEBABE {
		t.Error("trigger write did not reach memory")
	}
	st, _, _, latched, seq := n.ReadRxSample()
	if latched != base {
		t.Errorf("latched base %#x, want %#x", latched, base)
	}
	if seq != 1 {
		t.Errorf("sample seq = %d", seq)
	}
	if d := st.Seconds() - 2; d < 0 || d > 1e-6 {
		t.Errorf("rx stamp offset %v", d)
	}
	if n.ReadIO(IORxHeaderBase) != base {
		t.Error("I/O read of Receive Header Base wrong")
	}
	// Writes at other offsets of the header do not trigger.
	n.COMCOWrite32(base+0x00, 1)
	if _, rx, _ := n.Stats(); rx != 1 {
		t.Errorf("rx triggers = %d", rx)
	}
}

func TestBackToBackOverwritesSample(t *testing.T) {
	s, _, n := rig(5)
	s.RunUntil(1)
	n.COMCOWrite32(RxHeaderAddr(0)+csp.RxTrigOffset, 0)
	s.RunUntil(1.00005)
	n.COMCOWrite32(RxHeaderAddr(1)+csp.RxTrigOffset, 0)
	_, _, _, latched, seq := n.ReadRxSample()
	if latched != RxHeaderAddr(1) {
		t.Error("latch should follow the newest trigger")
	}
	if seq != 2 {
		t.Errorf("seq = %d; software uses the gap to detect the overrun", seq)
	}
}

func TestIORegisters(t *testing.T) {
	_, _, n := rig(6)
	n.WriteIO(IOVectorBase, 0x40)
	if n.ReadIO(IOVectorBase) != 0x40 {
		t.Error("vector base readback")
	}
	n.WriteIO(IOIntEnable, 1)
	if n.ReadIO(IOIntEnable) != 1 {
		t.Error("int enable readback")
	}
	n.WriteIO(IOIntEnable, 0)
	if n.ReadIO(IOIntEnable) != 0 {
		t.Error("int disable readback")
	}
	if n.ReadIO(0x80) != 0 {
		t.Error("unmapped I/O should read zero")
	}
}

func TestSPROMIdentification(t *testing.T) {
	_, _, n := rig(7)
	id := n.SPROM()
	if !bytes.Contains(id, []byte("NTI")) {
		t.Error("S-PROM lacks module identification")
	}
	if n.ReadIO(IOSPROM) != uint32(id[0]) {
		t.Error("I/O S-PROM access byte wrong")
	}
}

func TestInterruptVectorComposition(t *testing.T) {
	s, u, n := rig(8)
	s.RunUntil(0.5)
	var vectors []uint8
	n.OnInterrupt(func(v uint8) { vectors = append(vectors, v) })
	n.WriteIO(IOVectorBase, 0x40)
	n.EnableInts()
	// INTN via a receive trigger with interrupts enabled on the SSU.
	u.SSU(SSUReceive).EnableInterrupt(true)
	n.COMCOWrite32(RxHeaderAddr(0)+csp.RxTrigOffset, 0)
	if len(vectors) != 1 || vectors[0] != 0x40|VecINTN {
		t.Fatalf("vectors = %v, want [0x41]", vectors)
	}
	// Interrupts auto-disable until software re-enables: second trigger lost.
	n.COMCOWrite32(RxHeaderAddr(1)+csp.RxTrigOffset, 0)
	if len(vectors) != 1 {
		t.Error("interrupt delivered while disabled")
	}
	if _, _, lost := n.Stats(); lost != 1 {
		t.Errorf("lost interrupts = %d", lost)
	}
	n.EnableInts()
	n.COMCOWrite32(RxHeaderAddr(2)+csp.RxTrigOffset, 0)
	if len(vectors) != 2 {
		t.Error("interrupt not delivered after re-enable")
	}
}

func TestTimerInterruptVector(t *testing.T) {
	s, u, n := rig(9)
	var vectors []uint8
	n.OnInterrupt(func(v uint8) { vectors = append(vectors, v) })
	n.WriteIO(IOVectorBase, 0x80)
	n.EnableInts()
	u.DutyAt(timefmt.Stamp(timefmt.DurationFromSeconds(1)), func() {})
	s.RunUntil(2)
	if len(vectors) != 1 || vectors[0] != 0x80|VecINTT {
		t.Errorf("vectors = %v, want [0x82]", vectors)
	}
}

func TestHeaderAddrBounds(t *testing.T) {
	for _, fn := range []func(){
		func() { TxHeaderAddr(-1) },
		func() { TxHeaderAddr(NumTxHeaders) },
		func() { RxHeaderAddr(-1) },
		func() { RxHeaderAddr(NumRxHeaders) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range header index accepted")
				}
			}()
			fn()
		}()
	}
}

func TestUTCSURegisterWindowMMIO(t *testing.T) {
	// Fig. 6: the 512-byte UTCSU register window follows the SRAM in the
	// CPU-visible space; a driver can run the chip by plain MMIO.
	s, u, n := rig(10)
	s.RunUntil(5.25)
	ts := n.CPURead32(UTCSURegBase + utcsu.RegTimestamp)
	ms := n.CPURead32(UTCSURegBase + utcsu.RegMacrostamp)
	got, ok := timefmt.FromWords(ts, ms)
	if !ok {
		t.Fatal("MMIO clock read fails checksum")
	}
	if got != u.Now() {
		t.Errorf("MMIO read %v != Now %v", got, u.Now())
	}
	// Write side: command a rate through the window.
	n.CPUWrite32(UTCSURegBase+utcsu.RegStep, 50_000)
	if u.RatePPB() != 50_000 {
		t.Errorf("MMIO STEP write lost: %d", u.RatePPB())
	}
	// SRAM below the window is unaffected by register traffic.
	n.CPUWrite32(DataBase, 0x12345678)
	if n.CPURead32(DataBase) != 0x12345678 {
		t.Error("SRAM access broken")
	}
}

// fakeBurst is a DMA burst with one pending word at addr, due at the
// next settle.
type fakeBurst struct {
	n       *NTI
	addr    uint32
	pending bool
	settles int
}

func (b *fakeBurst) Settle() {
	b.settles++
	if b.pending && b.settles > 1 {
		b.n.COMCOWrite32(b.addr, 0xD0D0D0D0)
		b.pending = false
	}
}

func (b *fakeBurst) PendingOverlaps(addr, n uint32) bool {
	return b.pending && addr < b.addr+4 && b.addr < addr+n
}

func TestCPUAccessSettlesPendingDMA(t *testing.T) {
	_, _, n := rig(1)
	b := &fakeBurst{n: n, addr: DataBase + 8, pending: true}
	n.BeginDMA(b)
	// First settle: the word is not yet due, and the write lands on it.
	n.CPUWrite(DataBase+10, []byte{1})
	if b.settles != 1 || n.DMAWriteOverlaps() != 1 {
		t.Fatalf("settles=%d overlaps=%d after a write on a pending word", b.settles, n.DMAWriteOverlaps())
	}
	// Second settle deposits the word before the read is served.
	if v := n.CPURead32(DataBase + 8); v != 0xD0D0D0D0 {
		t.Fatalf("read %#x, want the deposited DMA word", v)
	}
	n.CPUWrite32(DataBase+8, 7)
	if n.DMAWriteOverlaps() != 1 {
		t.Error("a write after the word was deposited counted as an overlap")
	}
	n.EndDMA(b)
	var buf [4]byte
	n.CPURead(DataBase, buf[:])
	if b.settles != 3 {
		t.Errorf("burst settled %d times, want 3 (once per access while registered)", b.settles)
	}
}
