package comco

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"math"
	"math/rand"
	"testing"

	"ntisim/internal/csp"
	"ntisim/internal/network"
	"ntisim/internal/nti"
	"ntisim/internal/oscillator"
	"ntisim/internal/sim"
	"ntisim/internal/trace"
	"ntisim/internal/utcsu"
)

// refCOMCO is the word-by-word DMA schedule the burst model replaced,
// kept as the test oracle: one event per 32-bit word, each word's value
// captured at arrival, rx-done one word time after the last word. It
// draws from the same RNG stream as COMCO, in the same order.
type refCOMCO struct {
	s       *sim.Simulator
	nti     *nti.NTI
	med     network.Bus
	cfg     Config
	rng     *sim.RNG
	channel int
	rxNext  int
	onRx    func(fid uint64, base uint32, length int, corrupt bool)
	tr      *trace.Tracer
}

func (r *refCOMCO) OnRxStored(fn func(fid uint64, base uint32, length int, corrupt bool)) {
	r.onRx = fn
}

func (r *refCOMCO) word(fid uint64, addr uint32, trig trace.Kind, do func()) func() {
	return func() {
		do()
		r.tr.Emit(trace.KindDMAWord, r.s.Now(), r.channel, r.channel, fid, uint64(addr), 0)
		if trig != 0 {
			r.tr.Emit(trig, r.s.Now(), r.channel, r.channel, fid, uint64(addr), 0)
		}
	}
}

func (r *refCOMCO) fetchHeader(fid uint64, base uint32, payload []byte, acquiredAt float64) {
	arb := r.rng.Uniform(r.cfg.ArbMinS, r.cfg.ArbMaxS)
	preamble := 64 / r.med.Bitrate()
	for w := 0; w < nti.HeaderSize/4; w++ {
		off := uint32(4 * w)
		var t float64
		if int(off) < r.cfg.TxFIFOBytes {
			t = acquiredAt + arb + float64(w)*r.cfg.DMAWordTimeS
		} else {
			drained := float64(int(off)-r.cfg.TxFIFOBytes) * 8 / r.med.Bitrate()
			t = acquiredAt + arb + preamble + drained
		}
		var trig trace.Kind
		if off == csp.OffTxTrig {
			trig = trace.KindTxTrigger
		}
		r.s.At(t, r.word(fid, base+off, trig, func() {
			binary.BigEndian.PutUint32(payload[off:], r.nti.COMCORead32(base+off))
		}))
	}
}

func (r *refCOMCO) FrameArrived(f network.Frame) {
	if len(f.Payload) < nti.HeaderSize {
		return
	}
	slot := r.rxNext
	r.rxNext = (r.rxNext + 1) % nti.RxHeadersPerCh
	base := nti.RxHeaderAddrCh(r.channel, slot)
	arb := r.rng.Uniform(r.cfg.ArbMinS, r.cfg.ArbMaxS)
	deposit := func(w int, addr uint32, val uint32) {
		var trig trace.Kind
		if addr == base+csp.RxTrigOffset {
			trig = trace.KindRxTrigger
		}
		r.s.After(arb+float64(w)*r.cfg.DMAWordTimeS, r.word(f.ID, addr, trig, func() {
			r.nti.COMCOWrite32(addr, val)
		}))
	}
	words := nti.HeaderSize / 4
	for w := 0; w < words; w++ {
		deposit(w, base+uint32(4*w), binary.BigEndian.Uint32(f.Payload[4*w:]))
	}
	extra := f.Payload[nti.HeaderSize:]
	if len(extra) > nti.DataSlotSize {
		extra = extra[:nti.DataSlotSize]
	}
	dataBase := nti.DataSlotAddr(r.channel, slot)
	nw := (len(extra) + 3) / 4
	for w := 0; w < nw; w++ {
		var tail [4]byte
		copy(tail[:], extra[4*w:])
		deposit(words+w, dataBase+uint32(4*w), binary.BigEndian.Uint32(tail[:]))
	}
	words += nw
	length, corrupt := len(f.Payload), f.Corrupt
	r.s.After(arb+float64(words)*r.cfg.DMAWordTimeS, func() {
		r.tr.Emit(trace.KindRxDone, r.s.Now(), r.channel, r.channel, f.ID, uint64(base), 0)
		r.onRx(f.ID, base, length, corrupt)
	})
}

// dmaModel is what the oracle drives: the burst COMCO or its reference.
type dmaModel interface {
	FrameArrived(f network.Frame)
	fetchHeader(fid uint64, base uint32, payload []byte, acquiredAt float64)
	OnRxStored(fn func(fid uint64, base uint32, length int, corrupt bool))
}

const oracleChannels = 2

// world is one simulated NTI with a DMA model per channel, recording an
// observation at every CPU access and every rx-done.
type world struct {
	s   *sim.Simulator
	n   *nti.NTI
	ch  [oracleChannels]dmaModel
	obs []string
	tx  [][]byte // fetched transmit frames, in fetch order
	mem []byte

	// The trace is drained into a fresh tracer at every observation.
	// Records stamped at or before the observation are folded into an
	// order-free digest; the rest wait in later. Transmit DMA words wait
	// for the final observation, because the burst model emits the
	// words before its TRANSMIT trigger only at the trigger instant.
	tr     *trace.Tracer
	later  []trace.Record
	recSum uint64
	recN   int
}

func newWorld(seed uint64, ref bool) *world {
	w := &world{s: sim.New(seed), mem: make([]byte, nti.SystemBase)}
	med := network.NewMedium(w.s, network.DefaultLAN())
	o := oscillator.New(w.s, oscillator.Ideal(10e6), "osc")
	w.n = nti.New(utcsu.New(w.s, utcsu.Config{Osc: o}))
	for ch := range w.ch {
		label := fmt.Sprintf("ch%d", ch)
		if ref {
			rc := &refCOMCO{s: w.s, nti: w.n, med: med, cfg: Default82596(), channel: ch}
			rc.rng = w.s.RNG("comco/" + label)
			w.ch[ch] = rc
		} else {
			w.ch[ch] = NewChannel(w.s, w.n, med, Default82596(), label, ch, ch)
		}
		w.ch[ch].OnRxStored(func(fid uint64, base uint32, length int, corrupt bool) {
			w.observe(fmt.Sprintf("rx-done fid=%d base=%#x len=%d corrupt=%v", fid, base, length, corrupt), false)
		})
	}
	w.newTracer()
	return w
}

func (w *world) newTracer() {
	w.tr = trace.New(trace.Options{DMAWords: true, RingCap: 4096})
	for _, m := range w.ch {
		switch m := m.(type) {
		case *COMCO:
			// Swapping the sink mid-run has no constructor to go
			// through; records stay attributed to node = channel.
			m.tr, m.trWords = w.tr, true
		case *refCOMCO:
			m.tr = w.tr
		}
	}
}

var memSeed = maphash.MakeSeed()

// recordHash mixes every field of a record but its emission sequence.
func recordHash(r trace.Record) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{math.Float64bits(r.T), uint64(r.Kind), uint64(r.Node), uint64(r.Ch), r.A, r.B, math.Float64bits(r.V)} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// observe records the state every CPU access must agree on: the SRAM
// regions DMA and the test touch, each channel's receive sample and
// transmit latch, and the trace records stamped up to now.
func (w *world) observe(what string, final bool) {
	now := w.s.Now()
	if w.tr.Dropped() != 0 {
		panic("oracle trace ring overflowed")
	}
	pending := append(w.later, w.tr.Records()...)
	w.later = nil
	w.newTracer()
	for _, r := range pending {
		txWord := r.Kind == trace.KindDMAWord && r.B < nti.TxHeadersBase+nti.TxHeadersSize
		if r.T <= now && (final || !txWord) {
			w.recSum += recordHash(r)
			w.recN++
		} else {
			w.later = append(w.later, r)
		}
	}
	w.n.CPURead(0, w.mem)
	h := fnv.New64a()
	fmt.Fprintf(h, "%x", maphash.Bytes(memSeed, w.mem))
	for ch := 0; ch < oracleChannels; ch++ {
		st, am, ap, base, seq := w.n.ReadRxSampleCh(ch)
		hb := nti.TxHeaderAddrCh(ch, 0)
		fmt.Fprintf(h, "|rx %d %d %d %#x %d|tx %#x %#x %#x", st, am, ap, base, seq,
			w.n.COMCORead32(hb+csp.OffTxStamp), w.n.COMCORead32(hb+csp.OffTxMacro), w.n.COMCORead32(hb+csp.OffTxAlpha))
	}
	w.obs = append(w.obs, fmt.Sprintf("#%d t=%.12g %s: state %x, %d records %x",
		len(w.obs), now, what, h.Sum64(), w.recN, w.recSum))
}

// action is one scripted input at an absolute time.
type action struct {
	at float64
	do func(w *world)
}

// oracleScript draws a random input program: header-only, data-slot
// and corrupt frames on both channels with overlapping bursts, transmit
// fetches, and CPU reads and writes of NTI SRAM — among them RxSave
// writes placed between a frame's RECEIVE trigger and its DMA word 14,
// and accesses to transmit slots no fetch is using.
func oracleScript(seed int64) []action {
	rng := rand.New(rand.NewSource(seed))
	var acts []action
	add := func(at float64, do func(w *world)) { acts = append(acts, action{at, do}) }
	rnd := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	cpuWrite := func(at float64, addr uint32, b []byte) {
		add(at, func(w *world) {
			w.n.CPUWrite(addr, b)
			w.observe(fmt.Sprintf("cpu-write %#x+%d", addr, len(b)), false)
		})
	}
	cpuRead := func(at float64, addr uint32, n int) {
		add(at, func(w *world) {
			b := make([]byte, n)
			w.n.CPURead(addr, b)
			w.observe(fmt.Sprintf("cpu-read %#x %x", addr, b), false)
		})
	}
	const frames = 120
	for ch := 0; ch < oracleChannels; ch++ {
		t := 1e-3
		fid := uint64(1000 * (ch + 1))
		for i := 0; i < frames; i++ {
			t += 2e-6 + rng.Float64()*60e-6 // bursts often overlap
			var n int
			switch rng.Intn(3) {
			case 0:
				n = nti.HeaderSize
			case 1:
				n = nti.HeaderSize + nti.DataSlotSize
			default:
				n = nti.HeaderSize + rng.Intn(700)
			}
			f := network.Frame{ID: fid, Payload: rnd(n), Corrupt: rng.Intn(5) == 0}
			fid++
			ch, at := ch, t
			add(at, func(w *world) { w.ch[ch].FrameArrived(f) })
			slot := i % nti.RxHeadersPerCh
			base := nti.RxHeaderAddrCh(ch, slot)
			data := nti.DataSlotAddr(ch, slot)
			// RxSave write after the trigger (word 7, ≤ arrival+3.2 µs)
			// and before word 14 (≥ arrival+5.7 µs).
			if rng.Intn(2) == 0 {
				cpuWrite(at+3.3e-6+rng.Float64()*2.3e-6, base+csp.OffRxSave, rnd(8))
			}
			// Random accesses while the burst is (likely) in flight.
			for k := rng.Intn(4); k > 0; k-- {
				dt := rng.Float64() * 60e-6
				switch rng.Intn(6) {
				case 0:
					cpuRead(at+dt, base+uint32(rng.Intn(nti.HeaderSize-8)), 1+rng.Intn(8))
				case 1:
					cpuRead(at+dt, data+uint32(rng.Intn(nti.DataSlotSize-16)), 1+rng.Intn(16))
				case 2:
					cpuWrite(at+dt, base+uint32(rng.Intn(nti.HeaderSize-8)), rnd(1+rng.Intn(8)))
				case 3:
					cpuWrite(at+dt, data+uint32(rng.Intn(nti.DataSlotSize-16)), rnd(1+rng.Intn(16)))
				case 4:
					addr := base + uint32(4*rng.Intn(nti.HeaderSize/4))
					add(at+dt, func(w *world) {
						w.observe(fmt.Sprintf("cpu-read32 %#x %#x", addr, w.n.CPURead32(addr)), false)
					})
				default:
					addr, v := data+uint32(4*rng.Intn(nti.DataSlotSize/4)), rng.Uint32()
					add(at+dt, func(w *world) {
						w.n.CPUWrite32(addr, v)
						w.observe(fmt.Sprintf("cpu-write32 %#x", addr), false)
					})
				}
			}
		}
		// Transmit fetches, spaced wider than a frame's serialization so
		// the channel's stamp latch is re-armed only by the next frame.
		// Slots 0..9 carry fetches; the CPU also touches slots 10..20.
		t = 1e-3
		for i := 0; i < 24; i++ {
			t += 150e-6 + rng.Float64()*100e-6
			base := nti.TxHeaderAddrCh(ch, i%10)
			cpuWrite(t-20e-6, base, rnd(nti.HeaderSize))
			ch, at, fid := ch, t, uint64(100*(ch+1)+i)
			add(at, func(w *world) {
				buf := make([]byte, nti.HeaderSize)
				w.tx = append(w.tx, buf)
				w.ch[ch].fetchHeader(fid, base, buf, at)
			})
			other := nti.TxHeaderAddrCh(ch, 10+rng.Intn(nti.TxHeadersPerCh-10))
			dt := rng.Float64() * 40e-6
			if rng.Intn(2) == 0 {
				cpuWrite(at+dt, other+uint32(rng.Intn(nti.HeaderSize-8)), rnd(8))
			} else {
				cpuRead(at+dt, other, nti.HeaderSize)
			}
			cpuRead(at+rng.Float64()*40e-6, base, nti.HeaderSize)
		}
	}
	return acts
}

func (w *world) run(acts []action) {
	for _, a := range acts {
		a := a
		w.s.At(a.at, func() { a.do(w) })
	}
	w.s.RunUntil(1)
	w.observe("end", true)
}

// TestBurstMatchesWordByWordOracle drives the burst model and the
// word-by-word reference with identical inputs and requires identical
// observations at every CPU access and every rx-done.
func TestBurstMatchesWordByWordOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		acts := oracleScript(seed)
		ref, got := newWorld(uint64(seed), true), newWorld(uint64(seed), false)
		ref.run(acts)
		got.run(acts)
		if len(ref.obs) != len(got.obs) {
			t.Fatalf("seed %d: %d observations, reference %d", seed, len(got.obs), len(ref.obs))
		}
		for i := range ref.obs {
			if ref.obs[i] != got.obs[i] {
				t.Fatalf("seed %d: observation %d differs\n  burst: %s\n    ref: %s", seed, i, got.obs[i], ref.obs[i])
			}
		}
		for i := range ref.tx {
			if !bytes.Equal(ref.tx[i], got.tx[i]) {
				t.Fatalf("seed %d: transmit frame %d differs", seed, i)
			}
		}
		if got.n.DMAWriteOverlaps() == 0 {
			t.Fatalf("seed %d: no CPU write overlapped a pending DMA word; the script lost its race coverage", seed)
		}
		t.Logf("seed %d: %d observations, %d tx frames, %d overlapping writes",
			seed, len(got.obs), len(got.tx), got.n.DMAWriteOverlaps())
	}
}

// TestEventsPerBurst pins the burst model's event bill: one event per
// transmit fetch and two per received frame of at least a header,
// whatever the payload length and whether or not DMA words are traced.
func TestEventsPerBurst(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var tr *trace.Tracer
		if traced {
			tr = trace.New(trace.Options{DMAWords: true})
		}
		s, _, _, ca, _, cb := rigTraced(8, tr)
		count := func(do func()) uint64 {
			before := s.EventCount()
			do()
			s.RunUntil(s.Now() + 1e-3)
			return s.EventCount() - before
		}
		for _, extra := range []int{0, 100, nti.DataSlotSize, 1500} {
			payload := make([]byte, nti.HeaderSize+extra)
			if n := count(func() { ca.fetchHeader(1, nti.TxHeaderAddr(0), payload, s.Now()) }); n != 1 {
				t.Errorf("traced=%v: transmit fetch of a %d-byte frame fired %d events, want 1", traced, len(payload), n)
			}
			f := network.Frame{ID: 2, Payload: payload}
			if n := count(func() { cb.FrameArrived(f) }); n != 2 {
				t.Errorf("traced=%v: reception of a %d-byte frame fired %d events, want 2", traced, len(payload), n)
			}
		}
		if n := count(func() { cb.FrameArrived(network.Frame{Payload: make([]byte, nti.HeaderSize-1)}) }); n != 0 {
			t.Errorf("traced=%v: runt frame fired %d events, want 0", traced, n)
		}
	}
}

// TestBurstsAllocationFree pins the steady-state DMA timing model at
// zero allocations: a received frame from FrameArrived through rx-done,
// and a transmit fetch, reuse their pooled burst records and the
// simulator's event arena.
func TestBurstsAllocationFree(t *testing.T) {
	s, _, _, ca, _, cb := rig(9)
	cb.OnRxStored(func(uint64, uint32, int, bool) {})
	f := network.Frame{ID: 3, Payload: make([]byte, nti.HeaderSize+nti.DataSlotSize)}
	if a := testing.AllocsPerRun(100, func() {
		cb.FrameArrived(f)
		s.RunUntil(s.Now() + 1e-3)
	}); a != 0 {
		t.Errorf("reception allocates %v per frame, want 0", a)
	}
	payload := make([]byte, nti.HeaderSize)
	if a := testing.AllocsPerRun(100, func() {
		ca.fetchHeader(4, nti.TxHeaderAddr(0), payload, s.Now())
		s.RunUntil(s.Now() + 1e-3)
	}); a != 0 {
		t.Errorf("transmit fetch allocates %v per frame, want 0", a)
	}
}
