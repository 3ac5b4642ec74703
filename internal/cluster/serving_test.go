package cluster

import (
	"math"
	"strings"
	"testing"

	"ntisim/internal/service"
)

// servingConfig is a small 2-segment topology with a client population,
// big enough to exercise regional skew and gateway exclusion.
func servingConfig(seed uint64) Config {
	cfg := Defaults(4, seed)
	cfg.Segments = 2
	cfg.Sync.F = 0
	cfg.Serving = service.Config{
		Clients:      50000,
		Arrival:      "mmpp",
		RegionalSkew: 1.5,
	}
	return cfg
}

// runServing builds, syncs and serves for windowS, returning the report.
func runServing(t *testing.T, cfg Config, windowS float64) (service.Stats, *Cluster) {
	t.Helper()
	c := New(cfg)
	c.Start(c.Now() + 0.5)
	c.RunUntil(c.Now() + 3) // settle past the initial step transients
	begin := c.Now()
	c.StartServing(begin)
	c.RunUntil(begin + windowS)
	return c.ServingReport(c.Now() - begin), c
}

// TestServingShardCountInvariance: arrival streams are a pure function
// of (seed, node), so the same four nodes serve exactly the same query
// counts whether they form one flat LAN or two segments. The segmented
// run also keeps its nominal mean rate and ordered percentiles.
func TestServingShardCountInvariance(t *testing.T) {
	uniform := func(segments int) Config {
		cfg := servingConfig(99)
		cfg.Segments = segments
		cfg.Serving.RegionalSkew = 1
		return cfg
	}
	_, flat := runServing(t, uniform(1), 5)
	st, segmented := runServing(t, uniform(2), 5)
	if st.Queries == 0 {
		t.Fatal("no queries served")
	}
	if len(flat.ServingGens) != len(segmented.ServingGens) {
		t.Fatalf("generators: flat %d, segmented %d", len(flat.ServingGens), len(segmented.ServingGens))
	}
	for i, g := range segmented.ServingGens {
		if a, b := flat.ServingGens[i].Queries(), g.Queries(); a != b {
			t.Errorf("node %d: %d queries on one LAN, %d on two segments", i, a, b)
		}
	}
	if !(st.ErrP50S <= st.ErrP99S && st.ErrP99S <= st.ErrP999S && st.ErrP999S <= st.ErrMaxS) {
		t.Errorf("percentiles out of order: %+v", st)
	}
	// Open-loop mmpp preserves the nominal mean rate: 50000 clients x
	// 0.1 qps = 5000 qps. Short-window burst variance is large; accept
	// a broad band around it.
	if st.QPS < 2000 || st.QPS > 12000 {
		t.Errorf("QPS = %.0f, want ~5000", st.QPS)
	}
}

func TestServingGatewaysExcluded(t *testing.T) {
	cfg := servingConfig(7)
	c := New(cfg)
	if len(c.ServingGens) != cfg.Nodes {
		t.Fatalf("generators = %d, want one per regular node = %d (gateways excluded)",
			len(c.ServingGens), cfg.Nodes)
	}
	gateways := 0
	for _, m := range c.Members {
		if m.Segment < 0 {
			gateways++
		}
	}
	if gateways == 0 {
		t.Fatal("topology built no gateways; test is vacuous")
	}
	if st := c.ServingReport(1); st.Nodes != cfg.Nodes {
		t.Errorf("Stats.Nodes = %d, want %d", st.Nodes, cfg.Nodes)
	}
}

func TestServingRegionalSkew(t *testing.T) {
	cfg := servingConfig(11)
	cfg.Serving.Arrival = "poisson"
	cfg.Serving.RegionalSkew = 3
	_, c := runServing(t, cfg, 10)
	perSeg := map[int]uint64{}
	for i, g := range c.ServingGens {
		perSeg[c.Members[i].Segment] += g.Queries()
	}
	// Weight of segment 1 is 3x segment 0; the realized ratio should be
	// comfortably above 2 after 10 s at these rates.
	if perSeg[1] < 2*perSeg[0] {
		t.Errorf("segment query split = %v, want seg 1 >= 2x seg 0 under skew 3", perSeg)
	}
}

func TestServingUnshardedMeanRate(t *testing.T) {
	cfg := Defaults(2, 5)
	cfg.Serving = service.Config{Clients: 10000}
	st, _ := runServing(t, cfg, 10)
	// 10000 clients x 0.1 qps = 1000 qps homogeneous poisson; 10 s
	// window -> ~10000 queries with sub-percent shot noise.
	want := float64(st.Clients) * service.DefaultQPSPerClient * st.WindowS
	if math.Abs(float64(st.Queries)-want) > 0.05*want {
		t.Errorf("queries = %d, want %.0f +- 5%%", st.Queries, want)
	}
	if st.ErrMaxS <= 0 || st.ErrMaxS > 1e-3 {
		t.Errorf("served max error = %g s, want small positive", st.ErrMaxS)
	}
}

// MeasureDelay RTT probes are segment-local unicast; the guard must
// reject probe pairs homed on different segments. Three segments give a
// pair (first and last node) separated by two WAN hops.
func TestMeasureDelayCrossShardGuardThreeSegments(t *testing.T) {
	cfg := Defaults(6, 21)
	cfg.Segments = 3
	cfg.Sync.F = 0
	c := New(cfg)
	if a, b := c.Members[0], c.Members[5]; a.home == b.home {
		t.Fatalf("test expects members 0 and 5 on different segments, got %d and %d", a.home, b.home)
	}
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Error("cross-segment MeasureDelay did not panic")
				return
			}
			if !strings.Contains(p.(string), "cross segments") {
				t.Errorf("panic = %v, want cross-segments guard message", p)
			}
		}()
		c.MeasureDelay(0, 5, 4)
	}()
	// Same-segment probes must still work after the refused call.
	if b := c.MeasureDelay(0, 1, 4); b.Samples == 0 {
		t.Errorf("same-segment MeasureDelay returned empty bounds: %+v", b)
	}
}
