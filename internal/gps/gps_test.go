package gps

import (
	"math"
	"testing"

	"ntisim/internal/sim"
)

func collect(seed uint64, cfg Config, until float64) []Pulse {
	s := sim.New(seed)
	var out []Pulse
	New(s, cfg, 0, "t", func(p Pulse) { out = append(out, p) })
	s.RunUntil(until)
	return out
}

func TestHealthyPulsesOnSeconds(t *testing.T) {
	ps := collect(1, DefaultReceiver(), 10.5)
	if len(ps) < 9 {
		t.Fatalf("got %d pulses in 10 s", len(ps))
	}
	for _, p := range ps {
		off := p.TrueTime - float64(p.LabelSec)
		if math.Abs(off) > 300e-9 {
			t.Errorf("pulse error %v exceeds sawtooth", off)
		}
		if !p.Valid {
			t.Error("healthy pulse marked invalid")
		}
	}
}

func TestPulseLabelsConsecutive(t *testing.T) {
	ps := collect(2, DefaultReceiver(), 8)
	for i := 1; i < len(ps); i++ {
		if ps[i].LabelSec != ps[i-1].LabelSec+1 {
			t.Fatalf("labels not consecutive: %d then %d", ps[i-1].LabelSec, ps[i].LabelSec)
		}
	}
}

func TestBias(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.BiasS = 5e-6
	ps := collect(3, cfg, 20)
	var sum float64
	for _, p := range ps {
		sum += p.TrueTime - float64(p.LabelSec)
	}
	mean := sum / float64(len(ps))
	if math.Abs(mean-5e-6) > 1e-6 {
		t.Errorf("mean pulse error %v, want ~5µs bias", mean)
	}
}

func TestOutage(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultOutage, Start: 3, End: 7}}
	ps := collect(4, cfg, 12)
	for _, p := range ps {
		if p.TrueTime > 3.1 && p.TrueTime < 6.9 {
			t.Errorf("pulse at %v during outage", p.TrueTime)
		}
	}
	if len(ps) < 6 {
		t.Errorf("only %d pulses outside outage", len(ps))
	}
}

func TestOffsetFault(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultOffset, Start: 5, Magnitude: 2e-3}}
	ps := collect(5, cfg, 12)
	for _, p := range ps {
		off := p.TrueTime - float64(p.LabelSec)
		if p.LabelSec >= 6 {
			if math.Abs(off-2e-3) > 1e-5 {
				t.Errorf("pulse at sec %d: offset %v, want ~2ms", p.LabelSec, off)
			}
		} else if p.LabelSec <= 4 {
			if math.Abs(off) > 1e-5 {
				t.Errorf("pre-fault pulse offset %v", off)
			}
		}
	}
}

func TestWrongSecond(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultWrongSec, Start: 4, Magnitude: 1}}
	ps := collect(6, cfg, 10)
	sawWrong := false
	for _, p := range ps {
		if p.TrueTime > 4.5 {
			if p.LabelSec != int64(p.TrueTime+0.5)+1 {
				t.Errorf("wrong-second fault: label %d, true %v", p.LabelSec, p.TrueTime)
			}
			sawWrong = true
		}
	}
	if !sawWrong {
		t.Error("no faulty pulses observed")
	}
}

func TestRampDrift(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultRampDrift, Start: 2, Magnitude: 1e-5}}
	ps := collect(7, cfg, 30)
	last := ps[len(ps)-1]
	off := last.TrueTime - float64(last.LabelSec)
	if off < 1e-4 {
		t.Errorf("ramp drift not growing: final offset %v", off)
	}
}

func TestFlapping(t *testing.T) {
	cfg := DefaultReceiver()
	cfg.Faults = []Fault{{Kind: FaultFlapping, Start: 0, Magnitude: 1e-3}}
	ps := collect(8, cfg, 40)
	big := 0
	for _, p := range ps {
		if math.Abs(p.TrueTime-float64(p.LabelSec)) > 10e-6 {
			big++
		}
	}
	if big == 0 || big == len(ps) {
		t.Errorf("flapping should corrupt some but not all pulses: %d/%d", big, len(ps))
	}
}

func TestStop(t *testing.T) {
	s := sim.New(9)
	n := 0
	r := New(s, DefaultReceiver(), 0, "t", func(Pulse) { n++ })
	s.RunUntil(5)
	r.Stop()
	before := n
	s.RunUntil(10)
	if n != before {
		t.Error("pulses after Stop")
	}
	if r.Pulses() == 0 {
		t.Error("pulse counter dead")
	}
}

func TestDeterminism(t *testing.T) {
	a := collect(42, DefaultReceiver(), 20)
	b := collect(42, DefaultReceiver(), 20)
	if len(a) != len(b) {
		t.Fatal("pulse counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pulse %d differs", i)
		}
	}
}

func TestZDARoundTrip(t *testing.T) {
	for _, sec := range []int64{0, 1, 59, 3600, 123456789} {
		s := EncodeZDA(sec)
		got, err := ParseZDA(s)
		if err != nil {
			t.Fatalf("ParseZDA(%q): %v", s, err)
		}
		if got != sec {
			t.Errorf("round trip %d -> %d", sec, got)
		}
	}
}

func TestZDARejectsCorruption(t *testing.T) {
	s := EncodeZDA(42)
	if _, err := ParseZDA(s[1:]); err != ErrSentenceFraming {
		t.Errorf("missing $: %v", err)
	}
	if _, err := ParseZDA(s[:len(s)-1]); err != ErrSentenceFraming {
		t.Errorf("truncated checksum: %v", err)
	}
	bad := []byte(s)
	bad[7] ^= 0x01 // flip a digit
	if _, err := ParseZDA(string(bad)); err != ErrSentenceChecksum {
		t.Errorf("corrupted body: %v", err)
	}
	if _, err := ParseZDA("$GPGGA,1,2*00"); err == nil {
		t.Error("wrong sentence type accepted")
	}
}

func TestSerialDeliveryDelayed(t *testing.T) {
	s := sim.New(40)
	var sentences []string
	var arrival []float64
	feed := StartSerial(s, SerialConfig{}, "t", func(msg string) {
		sentences = append(sentences, msg)
		arrival = append(arrival, s.Now())
	})
	var pulseTimes []float64
	New(s, DefaultReceiver(), 0, "t", func(p Pulse) {
		pulseTimes = append(pulseTimes, s.Now())
		feed(p)
	})
	s.RunUntil(10.9)
	if len(sentences) < 9 {
		t.Fatalf("only %d sentences", len(sentences))
	}
	first, err := ParseZDA(sentences[0])
	if err != nil || first > 2 {
		t.Fatalf("first sentence: sec=%d err=%v", first, err)
	}
	for i, at := range arrival {
		d := at - pulseTimes[i]
		if d < 0.05 || d > 0.5 {
			t.Errorf("sentence %d delayed %v, want 50..500 ms", i, d)
		}
		if sec, err := ParseZDA(sentences[i]); err != nil || sec != first+int64(i) {
			t.Errorf("sentence %d decodes to %d (%v)", i, sec, err)
		}
	}
}

func TestSerialPairerMatchesInOrder(t *testing.T) {
	var pairs [][2]int64
	sp := NewSerialPairer(func(label, local int64) { pairs = append(pairs, [2]int64{label, local}) })
	sp.PulseSampled(1000)
	sp.PulseSampled(2000)
	sp.SentenceReceived(EncodeZDA(5))
	sp.SentenceReceived(EncodeZDA(6))
	if len(pairs) != 2 || pairs[0] != [2]int64{5, 1000} || pairs[1] != [2]int64{6, 2000} {
		t.Errorf("pairs = %v", pairs)
	}
	if sp.Dropped() != 0 {
		t.Errorf("dropped = %d", sp.Dropped())
	}
}

func TestSerialPairerResyncsAfterLoss(t *testing.T) {
	var pairs int
	sp := NewSerialPairer(func(int64, int64) { pairs++ })
	// Sentences lost: pulses pile up; the pairer must shed backlog.
	for i := 0; i < 8; i++ {
		sp.PulseSampled(int64(i))
	}
	if len(sp.pending) > 4 {
		t.Errorf("backlog not shed: %d", len(sp.pending))
	}
	if sp.Dropped() == 0 {
		t.Error("shedding not accounted")
	}
	sp.SentenceReceived(EncodeZDA(9))
	if pairs != 1 {
		t.Errorf("pairs = %d", pairs)
	}
	// Garbage sentence and sentence with no pending pulse.
	sp.SentenceReceived("garbage")
	sp.SentenceReceived(EncodeZDA(10))
	sp.SentenceReceived(EncodeZDA(11)) // nothing pending anymore
	if pairs != 2 {
		t.Errorf("pairs after noise = %d", pairs)
	}
}
