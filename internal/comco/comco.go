// Package comco models the Communications Coprocessor: an Intel
// 82596CA-class Ethernet controller that moves packets between the NTI's
// shared memory and the network medium by DMA, independently of the CPU
// (paper Fig. 2).
//
// The timing of its individual memory accesses is what the NTI's
// timestamping exploits, and what is left of the transmission/reception
// uncertainty ε once the NTI is in place (paper §3.1): on transmit, the
// header words are prefetched into the on-chip FIFO right after medium
// acquisition (the read of the trigger word at offset 0x14 raises
// TRANSMIT); on receive, the header words are written to memory after
// frame end, behind a bus-arbitration delay (the write of offset 0x1C
// raises RECEIVE). Both paths carry small bounded jitter — the "ongoing
// data transmission and the bus arbitration" terms the paper identifies.
//
// # Burst model
//
// Every 32-bit DMA word has a nominal time, the instant the real chip
// moves it, but only two accesses have an effect of their own: the
// TRANSMIT trigger read and the RECEIVE trigger write. The controller
// therefore schedules whole bursts, not words.
//
// A transmit fetch is one event at the TRANSMIT trigger instant that
// performs all 16 header reads in word order. Moving the other reads to
// that instant is exact: no CPU write touches a queued transmit header
// (the kernel cycles a 21-slot ring per channel), and the channel's
// stamp latch, which the reads after the trigger return, is re-armed
// only by the channel's next frame, which cannot be acquired while this
// one is still serializing.
//
// A received frame that carries a header is two events: the RECEIVE
// trigger instant (the write of offset 0x1C) and rx-done. Its words are
// staged at arrival and registered with the NTI as a pending burst
// (nti.DMABurst). A word is written into SRAM once its nominal time has
// come, at the first of three settle points: the trigger event, rx-done,
// or any CPU access to NTI SRAM — the NTI settles every due word before
// it serves one. The CPU thus sees memory exactly as under word-by-word
// DMA, including a stamp-move ISR that writes RxSave before DMA words
// 13–14 land on it (nti.NTI.DMAWriteOverlaps counts such writes).
// Writing all words at the trigger instant instead would not be exact.
//
// With DMA-word tracing on, every word still emits one dma-word record
// stamped with its nominal time. Records are emitted when a word is
// deposited or fetched, so they may trail other layers' later records
// in emission order; ordering a trace by time restores the word order.
package comco

import (
	"encoding/binary"

	"ntisim/internal/csp"
	"ntisim/internal/network"
	"ntisim/internal/nti"
	"ntisim/internal/sim"
	"ntisim/internal/trace"
)

// Config describes the controller's DMA timing.
type Config struct {
	DMAWordTimeS float64 // per 32-bit word bus transfer; default 400 ns
	TxFIFOBytes  int     // prefetch FIFO depth; default 32
	// Bus arbitration before a DMA burst: uniform in [Min, Max].
	ArbMinS float64 // default 200 ns
	ArbMaxS float64 // default 1.5 µs
}

// Default82596 returns timings representative of the 82596CA on a VME
// carrier.
func Default82596() Config {
	return Config{
		DMAWordTimeS: 400e-9,
		TxFIFOBytes:  32,
		ArbMinS:      100e-9,
		ArbMaxS:      400e-9,
	}
}

// COMCO is one controller instance attached to a medium and an NTI.
type COMCO struct {
	s       *sim.Simulator
	nti     *nti.NTI
	med     network.Bus
	cfg     Config
	rng     *sim.RNG
	station int
	channel int

	rxNext     int
	onRxStored func(fid uint64, headerBase uint32, length int, corrupt bool)

	txFrames uint64
	rxFrames uint64

	// tr is the simulator's trace sink (nil when off); trNode is the
	// node id records are attributed to (see NewChannel). trWords caches
	// Options.DMAWords so the per-word trace branch is one flag test.
	tr      *trace.Tracer
	trNode  int
	trWords bool

	// Pooled burst records with prebuilt callbacks keep the steady-state
	// DMA timing model allocation-free.
	freeTx []*txFetch
	freeRx []*rxBurst
}

// hdrWords is the number of 32-bit words in a CSP header; rxTrigWord is
// the receive-header word whose write raises RECEIVE.
const (
	hdrWords   = nti.HeaderSize / 4
	rxTrigWord = csp.RxTrigOffset / 4
)

// txFetch is one pooled transmit header fetch: the 16 header reads of
// one frame, performed together at the TRANSMIT trigger instant.
type txFetch struct {
	c       *COMCO
	base    uint32
	payload []byte  // frame the header bytes land in
	fid     uint64  // frame trace id (flow key)
	t0      float64 // acquisition + arbitration: word 0's read time
	run     func()
}

func (x *txFetch) fire() {
	c := x.c
	base, payload, fid, t0 := x.base, x.payload, x.fid, x.t0
	x.payload = nil
	c.freeTx = append(c.freeTx, x)
	for off := uint32(0); off < nti.HeaderSize; off += 4 {
		binary.BigEndian.PutUint32(payload[off:], c.nti.COMCORead32(base+off))
		if c.tr == nil {
			continue
		}
		t := c.fetchTime(t0, off)
		if c.trWords {
			c.tr.Emit(trace.KindDMAWord, t, c.trNode, c.channel, fid, uint64(base+off), 0)
		}
		if off == csp.OffTxTrig {
			c.tr.Emit(trace.KindTxTrigger, t, c.trNode, c.channel, fid, uint64(base+off), 0)
		}
	}
}

// fetchTime is the nominal read time of the transmit header word at
// off, for a fetch whose first read is at t0: back to back at DMA speed
// while the FIFO prefills, then paced by the wire draining it.
func (c *COMCO) fetchTime(t0 float64, off uint32) float64 {
	if int(off) < c.cfg.TxFIFOBytes {
		return t0 + float64(off/4)*c.cfg.DMAWordTimeS
	}
	preamble := 64 / c.med.Bitrate() // preamble bits on the wire
	drained := float64(int(off)-c.cfg.TxFIFOBytes) * 8 / c.med.Bitrate()
	return t0 + preamble + drained
}

func (c *COMCO) allocTx() *txFetch {
	if n := len(c.freeTx); n > 0 {
		x := c.freeTx[n-1]
		c.freeTx = c.freeTx[:n-1]
		return x
	}
	x := &txFetch{c: c}
	x.run = x.fire
	return x
}

// rxBurst is one received frame's pooled DMA burst: its header and
// data-slot words, staged at arrival and deposited into NTI memory as
// their nominal times come due (see the package doc). It implements
// nti.DMABurst.
type rxBurst struct {
	c       *COMCO
	t0, arb float64 // word w's nominal time is t0 + (arb + w·DMAWordTimeS)
	base    uint32  // receive header slot
	data    uint32  // paired data-buffer slot
	img     []byte  // staged words: header, then data zero-padded to a word
	next    int     // first word not yet deposited
	length  int
	corrupt bool
	fid     uint64
	trigFn  func()
	doneFn  func()
}

func (b *rxBurst) words() int { return len(b.img) / 4 }

// at is word w's nominal time — the same sum the per-word schedule
// computed, so a word is due exactly when its own event would have fired.
func (b *rxBurst) at(w int) float64 { return b.t0 + (b.arb + float64(w)*b.c.cfg.DMAWordTimeS) }

func (b *rxBurst) addr(w int) uint32 {
	if w < hdrWords {
		return b.base + uint32(4*w)
	}
	return b.data + uint32(4*(w-hdrWords))
}

// Settle deposits every word whose nominal time has come, in word
// order. The write of word rxTrigWord raises RECEIVE.
func (b *rxBurst) Settle() {
	c := b.c
	now := c.s.Now()
	for b.next < b.words() && b.at(b.next) <= now {
		w := b.next
		b.next++
		addr := b.addr(w)
		c.nti.COMCOWrite32(addr, binary.BigEndian.Uint32(b.img[4*w:]))
		if c.tr == nil {
			continue
		}
		t := b.at(w)
		if c.trWords {
			c.tr.Emit(trace.KindDMAWord, t, c.trNode, c.channel, b.fid, uint64(addr), 0)
		}
		if w == rxTrigWord {
			c.tr.Emit(trace.KindRxTrigger, t, c.trNode, c.channel, b.fid, uint64(addr), 0)
		}
	}
}

// PendingOverlaps reports whether [addr, addr+n) covers a word not yet
// deposited.
func (b *rxBurst) PendingOverlaps(addr, n uint32) bool {
	for w := b.next; w < b.words(); w++ {
		if a := b.addr(w); a < addr+n && addr < a+4 {
			return true
		}
	}
	return false
}

// done is the end of reception (the moment the real chip would raise
// its interrupt): every word is due by now, so settling retires the
// burst.
func (b *rxBurst) done() {
	c := b.c
	c.nti.SettleDMA()
	c.nti.EndDMA(b)
	base, length, corrupt, fid := b.base, b.length, b.corrupt, b.fid
	c.freeRx = append(c.freeRx, b)
	c.rxFrames++
	if c.tr != nil {
		c.tr.Emit(trace.KindRxDone, c.s.Now(), c.trNode, c.channel, fid, uint64(base), 0)
	}
	if c.onRxStored != nil {
		c.onRxStored(fid, base, length, corrupt)
	}
}

func (c *COMCO) allocRx() *rxBurst {
	if n := len(c.freeRx); n > 0 {
		b := c.freeRx[n-1]
		c.freeRx = c.freeRx[:n-1]
		return b
	}
	b := &rxBurst{c: c, img: make([]byte, 0, nti.HeaderSize+nti.DataSlotSize)}
	// The RECEIVE trigger event only settles: the trigger word is due.
	b.trigFn, b.doneFn = c.nti.SettleDMA, b.done
	return b
}

// NewChannel creates a controller on an NTI channel, attaching it to the
// medium as a station — gateway nodes run one controller per attached
// LAN segment, each wired to its own SSU pair (paper §3.3). The
// controller's trace records go to the simulator's tracer, attributed
// to node id `node` (the kernel's global node id — may differ from the
// medium-local station id on gateway nodes). Emitted: tx-trigger,
// rx-trigger, rx-done, and — when the tracer asks for them — every DMA
// word, stamped with its nominal time.
func NewChannel(s *sim.Simulator, module *nti.NTI, med network.Bus, cfg Config, label string, node, channel int) *COMCO {
	if cfg.DMAWordTimeS <= 0 {
		cfg.DMAWordTimeS = 400e-9
	}
	if cfg.TxFIFOBytes <= 0 {
		cfg.TxFIFOBytes = 32
	}
	if cfg.ArbMaxS < cfg.ArbMinS {
		cfg.ArbMaxS = cfg.ArbMinS
	}
	c := &COMCO{
		s: s, nti: module, med: med, cfg: cfg, rng: s.RNG("comco/" + label), channel: channel,
		tr: s.Tracer(), trNode: node, trWords: s.Tracer().Options().DMAWords,
	}
	c.station = med.Attach(c)
	return c
}

// Channel returns the NTI channel this controller is wired to.
func (c *COMCO) Channel() int { return c.channel }

// Station returns the controller's station id on the medium.
func (c *COMCO) Station() int { return c.station }

// OnRxStored installs the frame-reception callback: it fires when the
// burst's last word has been deposited in NTI memory, i.e. at the moment
// the real chip would raise its reception interrupt. fid is the frame's
// medium-assigned trace id; corrupt reports a CRC failure — the frame
// was still DMA'd (and the RECEIVE trigger fired! paper footnote 4) but
// must be discarded by software.
func (c *COMCO) OnRxStored(fn func(fid uint64, headerBase uint32, length int, corrupt bool)) {
	c.onRxStored = fn
}

// Transmit queues the CSP image residing in transmit header slot
// headerIdx (64 bytes, already written by the CPU) for transmission,
// with extra payload bytes appended verbatim. The frame's header bytes
// are produced by timed DMA reads through the NTI's decode logic, so the
// TRANSMIT trigger fires and the stamp words are inserted on the fly.
// It returns the frame's medium-assigned trace id.
func (c *COMCO) Transmit(headerIdx int, extra []byte, dst int) uint64 {
	base := nti.TxHeaderAddrCh(c.channel, headerIdx)
	payload := make([]byte, nti.HeaderSize+len(extra))
	copy(payload[nti.HeaderSize:], extra)
	f := network.Frame{Src: c.station, Dst: dst, Payload: payload}
	var fid uint64
	fid = c.med.Send(f, func(at float64) { c.fetchHeader(fid, base, payload, at) })
	c.txFrames++
	return fid
}

// TransmitRaw sends a pre-assembled frame without going through the
// NTI's transmit-header decode logic — the path a system *without* NTI
// support uses (the software-only baselines of experiment E2): the
// payload bytes leave exactly as software wrote them, so any timestamp
// they carry was taken before medium access.
// It returns the frame's medium-assigned trace id.
func (c *COMCO) TransmitRaw(payload []byte, dst int) uint64 {
	buf := make([]byte, len(payload))
	copy(buf, payload)
	fid := c.med.Send(network.Frame{Src: c.station, Dst: dst, Payload: buf}, nil)
	c.txFrames++
	return fid
}

// fetchHeader schedules the frame's header fetch at its TRANSMIT
// trigger instant. Header word reads start after bus arbitration.
func (c *COMCO) fetchHeader(fid uint64, base uint32, payload []byte, acquiredAt float64) {
	arb := c.rng.Uniform(c.cfg.ArbMinS, c.cfg.ArbMaxS)
	x := c.allocTx()
	x.base, x.payload, x.fid, x.t0 = base, payload, fid, acquiredAt+arb
	c.s.At(c.fetchTime(x.t0, csp.OffTxTrig), x.run)
}

// FrameArrived implements network.Station: the controller DMAs the
// received header into the next receive-header slot, and any payload
// beyond it into the paired data-buffer slot, word by word behind a
// bus-arbitration delay. The write of the RxTrigOffset word raises
// RECEIVE in the NTI.
func (c *COMCO) FrameArrived(f network.Frame) {
	if len(f.Payload) < nti.HeaderSize {
		return // runt or background frame: no CSP header to store
	}
	slot := c.rxNext
	c.rxNext = (c.rxNext + 1) % nti.RxHeadersPerCh
	arb := c.rng.Uniform(c.cfg.ArbMinS, c.cfg.ArbMaxS)
	// Payload beyond the header is truncated to the data slot, like a
	// real descriptor chain would continue — CSPs never need more.
	n := min(len(f.Payload), nti.HeaderSize+nti.DataSlotSize)
	b := c.allocRx()
	b.img = append(b.img[:0], f.Payload[:n]...)
	for len(b.img)%4 != 0 {
		b.img = append(b.img, 0) // final partial word, zero-padded
	}
	b.t0, b.arb, b.next = c.s.Now(), arb, 0
	b.base = nti.RxHeaderAddrCh(c.channel, slot)
	b.data = nti.DataSlotAddr(c.channel, slot)
	b.length, b.corrupt, b.fid = len(f.Payload), f.Corrupt, f.ID
	c.nti.BeginDMA(b)
	c.s.After(arb+float64(rxTrigWord)*c.cfg.DMAWordTimeS, b.trigFn)
	c.s.After(arb+float64(b.words())*c.cfg.DMAWordTimeS, b.doneFn)
}

// Stats reports frames transmitted and stored.
func (c *COMCO) Stats() (tx, rx uint64) { return c.txFrames, c.rxFrames }
