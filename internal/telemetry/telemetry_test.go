package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestNilHandlesAreNoOps: the entire disabled path — nil registry, nil
// handles — must be callable and free.
func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	r.GaugeFunc("f", func() float64 { return 1 })
	c.Add(5)
	c.Inc()
	g.Set(1)
	g.Add(2)
	h.Add(3)
	h.AddN(4, 2)
	if c.Value() != 0 || g.Value() != 0 || g.Hi() != 0 || h.Count() != 0 {
		t.Fatalf("nil handles leaked state")
	}
	if s := Capture(1, r); s.Counters != nil || s.Gauges != nil || s.Hists != nil {
		t.Fatalf("nil registry captured %+v", s)
	}
	var w *Watchdog
	w.Observe(Snapshot{})
	if w.Flags() != nil {
		t.Fatalf("nil watchdog flagged")
	}
	var m *Monitor
	m.Begin("x", 1)
	m.CellStart(0, "c")
	m.CellEnd(0, "c", 1, nil, false)
	m.Publish(Snapshot{})
	if st := m.Status(); st.Total != 0 {
		t.Fatalf("nil monitor status = %+v", st)
	}
}

// TestDisabledPathAllocFree pins the core acceptance property: with no
// registry configured, every update site costs zero allocations.
func TestDisabledPathAllocFree(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1.5)
		g.Add(0.5)
		h.Add(1e-6)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v allocs/op", allocs)
	}
}

// TestEnabledSteadyStateAllocFree: after handles exist, updates allocate
// nothing either.
func TestEnabledSteadyStateAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2)
		h.Add(1e-3)
	})
	if allocs != 0 {
		t.Fatalf("enabled steady state allocates %v allocs/op", allocs)
	}
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatalf("second lookup returned a new counter")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Set(3)
	if g.Value() != 3 || g.Hi() != 10 {
		t.Fatalf("gauge v=%g hi=%g, want 3/10", g.Value(), g.Hi())
	}
	a := r.Gauge("acc")
	a.Add(1.5)
	a.Add(2.5)
	if a.Value() != 4 || a.Hi() != 4 {
		t.Fatalf("accumulator v=%g hi=%g, want 4/4", a.Value(), a.Hi())
	}
}

// TestHistogramQuantiles checks relative accuracy on a known distribution.
func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	// 1..10000 µs uniform: p50 ≈ 5000 µs, p99 ≈ 9900 µs.
	for i := 1; i <= 10000; i++ {
		h.Add(float64(i) * 1e-6)
	}
	st := histValue(h)
	if st.N != 10000 {
		t.Fatalf("n = %d", st.N)
	}
	if st.Min != 1e-6 || st.Max != 1e-2 {
		t.Fatalf("min/max = %g/%g", st.Min, st.Max)
	}
	if rel := math.Abs(st.P50-5e-3) / 5e-3; rel > 0.07 {
		t.Fatalf("p50 = %g, rel err %.3f > 7%%", st.P50, rel)
	}
	if rel := math.Abs(st.P99-9.9e-3) / 9.9e-3; rel > 0.07 {
		t.Fatalf("p99 = %g, rel err %.3f > 7%%", st.P99, rel)
	}
	if mean := st.Mean; math.Abs(mean-5.0005e-3)/5e-3 > 1e-9 {
		t.Fatalf("mean = %g (exact sum expected)", mean)
	}
}

func TestHistogramEdges(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	h.Add(0)
	h.Add(-1)
	h.Add(1e300) // overflow bin
	h.AddN(2.5, 3)
	st := histValue(h)
	if st.N != 6 {
		t.Fatalf("n = %d, want 6", st.N)
	}
	if st.Min != -1 || st.Max != 1e300 {
		t.Fatalf("min/max = %g/%g", st.Min, st.Max)
	}
	// p50 (rank 2 of 0-indexed 5) falls in the 2.5 bin.
	if st.P50 < 2.3 || st.P50 > 2.7 {
		t.Fatalf("p50 = %g, want ≈2.5", st.P50)
	}
	if histValue(nil) != (HistValue{}) {
		t.Fatalf("empty histogram stats non-zero")
	}
}

// TestCaptureReadsEveryMetricKind: a snapshot carries every counter,
// gauge (level and high-water mark), gauge callback and histogram of
// the registry under its plain name.
func TestCaptureReadsEveryMetricKind(t *testing.T) {
	r := New()
	r.Counter("ev").Add(42)
	r.Gauge("depth").Set(7)
	r.Gauge("depth").Set(5)
	r.Histogram("lat").Add(1e-3)
	r.Histogram("lat").Add(4e-3)
	r.GaugeFunc("pool", func() float64 { return 99 })
	s := Capture(12.5, r)
	if s.T != 12.5 {
		t.Fatalf("t = %g", s.T)
	}
	if s.Counters["ev"] != 42 {
		t.Fatalf("counter = %d, want 42", s.Counters["ev"])
	}
	if g := s.Gauges["depth"]; g.V != 5 || g.Hi != 7 {
		t.Fatalf("gauge = %+v, want level 5, high-water 7", g)
	}
	if s.Gauges["pool"].V != 99 {
		t.Fatalf("gauge func = %+v", s.Gauges["pool"])
	}
	if h := s.Hists["lat"]; h.N != 2 || h.Min != 1e-3 || h.Max != 4e-3 {
		t.Fatalf("hist = %+v", h)
	}
}

// TestSnapshotJSONDeterministic: marshaling sorts map keys, so two
// captures of identical state yield identical bytes.
func TestSnapshotJSONDeterministic(t *testing.T) {
	mk := func() []byte {
		r := New()
		for _, n := range []string{"z", "a", "m", "q"} {
			r.Counter(n).Add(7)
			r.Gauge("g." + n).Set(1)
		}
		r.Histogram("h").AddN(1e-3, 5)
		b, err := json.Marshal(Capture(3, r))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	x, y := mk(), mk()
	if string(x) != string(y) {
		t.Fatalf("non-deterministic snapshot JSON:\n%s\n%s", x, y)
	}
	if !strings.Contains(string(x), `"t":3`) {
		t.Fatalf("snapshot JSON missing t: %s", x)
	}
	// Empty snapshot omits the maps entirely.
	e, _ := json.Marshal(Capture(1, New()))
	if string(e) != `{"t":1}` {
		t.Fatalf("empty snapshot = %s", e)
	}
}

func TestWatchdogContainmentAndConvergence(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{})
	w.Observe(Snapshot{Counters: map[string]uint64{MetricContainment: 0}})
	if w.Flags() != nil {
		t.Fatalf("flagged healthy snapshot: %v", w.Flags())
	}
	w.Observe(Snapshot{Counters: map[string]uint64{
		MetricContainment:       2,
		MetricConvergenceFailed: 1,
	}})
	got := w.Flags()
	want := []string{"containment-violation", "convergence-failures"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("flags = %v, want %v", got, want)
	}
	// Flags latch even after counters stop growing.
	w.Observe(Snapshot{})
	if len(w.Flags()) != 2 {
		t.Fatalf("flags unlatched: %v", w.Flags())
	}
	// Limits suppress.
	w2 := NewWatchdog(WatchdogConfig{ContainmentLimit: 5, ConvergenceFailLimit: 5})
	w2.Observe(Snapshot{Counters: map[string]uint64{MetricContainment: 5, MetricConvergenceFailed: 3}})
	if w2.Flags() != nil {
		t.Fatalf("limit not honored: %v", w2.Flags())
	}
}

func TestWatchdogQueueRunaway(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{QueueDepthLimit: 100})
	w.Observe(Snapshot{Gauges: map[string]GaugeValue{MetricQueueDepth: {V: 5, Hi: 101}}})
	if f := w.Flags(); len(f) != 1 || f[0] != "queue-depth-runaway" {
		t.Fatalf("flags = %v", f)
	}
}

func TestPromRendering(t *testing.T) {
	var sb strings.Builder
	snap := Snapshot{
		T:        2,
		Counters: map[string]uint64{"sim.events_fired": 7},
		Gauges:   map[string]GaugeValue{"sim.queue_depth": {V: 4, Hi: 9}},
		Hists:    map[string]HistValue{"sync.fused_width_s": {N: 1, P50: 2e-6, P90: 2e-6, P99: 2e-6, Mean: 2e-6}},
	}
	WriteProm(&sb, CampaignStatus{Total: 4, Done: 1, Snapshot: &snap})
	out := sb.String()
	for _, want := range []string{
		"nti_cells_total 4",
		"nti_sim_events_fired 7",
		"nti_sim_queue_depth 4",
		"nti_sim_queue_depth_hi 9",
		`nti_sync_fused_width_s{quantile="0.99"} 2e-06`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}
