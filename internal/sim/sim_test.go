package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(got) {
		t.Errorf("tied events fired out of insertion order: %v", got)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(1, func() { fired = true })
	if !e.Pending() {
		t.Error("event should be pending")
	}
	e.Cancel()
	if e.Pending() {
		t.Error("cancelled event still pending")
	}
	e.Cancel() // double-cancel is a no-op
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New(1)
	var got []int
	events := make([]*Event, 20)
	for i := 0; i < 20; i++ {
		i := i
		events[i] = s.At(float64(i), func() { got = append(got, i) })
	}
	for i := 1; i < 20; i += 2 {
		events[i].Cancel()
	}
	s.Run()
	for _, v := range got {
		if v%2 != 0 {
			t.Errorf("cancelled event %d fired", v)
		}
	}
	if len(got) != 10 {
		t.Errorf("fired %d events, want 10", len(got))
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New(1)
	var times []float64
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(0.5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 1.5 {
		t.Errorf("times = %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past should panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var got []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.RunUntil(3)
	if len(got) != 3 {
		t.Errorf("fired %v, want events at 1..3", got)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v after RunUntil(3)", s.Now())
	}
	s.Run() // rest still queued
	if len(got) != 5 {
		t.Errorf("after Run fired %v", got)
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	s := New(1)
	s.RunUntil(10)
	if s.Now() != 10 {
		t.Errorf("Now = %v, want 10", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	count := 0
	tk := s.Every(1, 2, func() {
		count++
		if count == 5 {
			// Stop from within the callback.
		}
	})
	s.At(9.5, func() { tk.Stop() })
	s.Run()
	if count != 5 { // fires at 1,3,5,7,9
		t.Errorf("ticker fired %d times, want 5", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		s := New(42)
		r := s.RNG("x")
		var out []uint64
		for i := 0; i < 5; i++ {
			d := r.Float64() * 10
			s.After(d, func() { out = append(out, r.Uint64()) })
		}
		s.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	r := NewRNG(7)
	a := r.Derive("alpha")
	b := r.Derive("beta")
	a2 := NewRNG(7).Derive("alpha")
	if a.Uint64() != a2.Uint64() {
		t.Error("Derive not deterministic")
	}
	if a.Uint64() == b.Uint64() {
		t.Error("different labels should give different streams")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(3)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("normal stddev = %v", math.Sqrt(variance))
	}
}

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG(9)
	n := 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(3)
	}
	if mean := sum / float64(n); math.Abs(mean-3) > 0.1 {
		t.Errorf("exponential mean = %v", mean)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	r := NewRNG(13)
	// Both regimes: Knuth product method (small mean) and the rounded
	// normal approximation (mean >= 30).
	for _, mean := range []float64{0.5, 6, 80, 5000} {
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / float64(n)
		// Standard error of the sample mean is sqrt(mean/n); 5 sigma.
		tol := 5 * math.Sqrt(mean/float64(n))
		if math.Abs(got-mean) > tol {
			t.Errorf("Poisson(%g) sample mean = %g, want +- %g", mean, got, tol)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive mean must give 0 arrivals")
	}
}

func TestRNGPoissonDeterminism(t *testing.T) {
	a, b := NewRNG(21), NewRNG(21)
	for i := 0; i < 1000; i++ {
		mean := 0.1 + float64(i%70)
		if va, vb := a.Poisson(mean), b.Poisson(mean); va != vb {
			t.Fatalf("draw %d diverged: %d vs %d", i, va, vb)
		}
	}
}

func TestRNGTruncNormalBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.TruncNormal(0, 10, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestRNGParetoBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Pareto(1.5, 0.001, 0.5)
		if v < 0.001-1e-12 || v > 0.5+1e-12 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(8)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) produced only %d distinct values", len(seen))
	}
}

// Property: all queued events with distinct times fire in sorted order.
func TestQuickEventOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(1)
		var fired []float64
		for _, v := range raw {
			at := float64(v)
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// BenchmarkEventQueue measures the pending-event set under the three
// steady-state workloads: a pure schedule→fire chain, a ticker re-push
// loop, and a schedule/cancel mix that exercises the tombstone path.
// All three must report 0 allocs/op (the pool regression tests in
// events_test.go pin the same property).
func BenchmarkEventQueue(b *testing.B) {
	b.Run("fire", func(b *testing.B) {
		s := New(1)
		r := s.RNG("bench")
		var fn func()
		n := 0
		fn = func() {
			n++
			if n < b.N {
				s.After(r.Float64(), fn)
			}
		}
		b.ReportAllocs()
		if b.N > 0 {
			s.After(0, fn)
		}
		s.Run()
	})
	b.Run("fire-fanout", func(b *testing.B) {
		// 64 events pending at all times: deeper heap, same chain.
		s := New(1)
		r := s.RNG("bench")
		var fn func()
		n := 0
		fn = func() {
			n++
			if n < b.N {
				s.After(1+r.Float64(), fn)
			}
		}
		for i := 0; i < 64 && i < b.N; i++ {
			s.After(r.Float64(), fn)
		}
		b.ReportAllocs()
		s.Run()
	})
	b.Run("ticker", func(b *testing.B) {
		s := New(1)
		n := 0
		s.Every(1, 1, func() { n++ })
		b.ReportAllocs()
		s.RunUntil(float64(b.N))
	})
	b.Run("schedule-cancel", func(b *testing.B) {
		s := New(1)
		r := s.RNG("bench")
		cb := func() {}
		var fn func()
		n := 0
		fn = func() {
			n++
			if n < b.N {
				// One survivor chains the benchmark; one victim is
				// tombstoned immediately.
				victim := s.After(2+r.Float64(), cb)
				s.After(r.Float64(), fn)
				victim.Cancel()
			}
		}
		b.ReportAllocs()
		if b.N > 0 {
			s.After(0, fn)
		}
		s.Run()
	})
}

func TestDeriveSeedMatchesDerive(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF} {
		for _, label := range []string{"", "shard/0", "shard/17", "medium"} {
			a := NewRNG(DeriveSeed(seed, label))
			b := NewRNG(seed).Derive(label)
			for i := 0; i < 8; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("seed %d label %q draw %d: DeriveSeed stream %x != Derive stream %x",
						seed, label, i, x, y)
				}
			}
		}
	}
}

// TestWithSeedSharesHeapNotStreams: a WithSeed handle schedules onto
// the same heap (one clock, one insertion-order tie-break across both
// handles) while its streams come from its own root.
func TestWithSeedSharesHeapNotStreams(t *testing.T) {
	s := New(1)
	v := s.WithSeed(DeriveSeed(1, "shard/1"))
	var got []int
	s.At(2, func() { got = append(got, 0) })
	v.At(1, func() { got = append(got, 1) })
	v.At(2, func() { got = append(got, 2) })
	s.At(2, func() { got = append(got, 3) })
	v.RunUntil(5)
	if want := []int{1, 0, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
	if s.Now() != 5 || s.EventCount() != 4 || v.EventCount() != 4 {
		t.Fatalf("handles disagree: now %v, events %d/%d", s.Now(), s.EventCount(), v.EventCount())
	}
	if s.RNG("medium").Uint64() == v.RNG("medium").Uint64() {
		t.Fatal("same label drew the same stream through handles of different seeds")
	}
	if v.RNG("medium").Uint64() != NewRNG(DeriveSeed(1, "shard/1")).Derive("medium").Uint64() {
		t.Fatal("WithSeed handle does not draw from its own root")
	}
}
