package cluster

import (
	"sync"
	"testing"

	"ntisim/internal/metrics"
)

// shardedBase is the reference sharded topology of these tests:
// 2 segments × 4 nodes + F+1 = 2 gateways on the link.
func shardedBase(seed uint64) Config {
	cfg := Defaults(8, seed)
	cfg.Sync.F = 1
	cfg.Segments = 2
	return cfg
}

// TestShardedTopologyShape checks segment, gateway and shard placement
// over chains of 2 and 3 segments with default and explicit gateway
// counts: regular nodes first, segment by segment, then GatewaysPerLink
// gateways per link in link order, each gateway homed on its lower
// adjacent segment's shard with one channel on each side.
func TestShardedTopologyShape(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		nodes, segments, gpl int
		wantGPL              int
	}{
		{"2x4-default-gateways", 8, 2, 0, 2},
		{"2x4-three-gateways", 8, 2, 3, 3},
		{"3x3-two-gateways", 9, 3, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Defaults(tc.nodes, 31)
			cfg.Sync.F = 1
			cfg.Segments = tc.segments
			cfg.GatewaysPerLink = tc.gpl
			c := New(cfg)
			if c.Group == nil {
				t.Fatal("sharded cluster has no Group")
			}
			if got := c.Group.Shards(); got != tc.segments {
				t.Fatalf("shards = %d, want %d", got, tc.segments)
			}
			if len(c.Media) != tc.segments {
				t.Fatalf("media = %d", len(c.Media))
			}
			links := tc.segments - 1
			if want := tc.nodes + links*tc.wantGPL; len(c.Members) != want {
				t.Fatalf("members = %d, want %d", len(c.Members), want)
			}
			per := tc.nodes / tc.segments
			for _, m := range c.Members {
				if m.Index >= tc.nodes {
					link := (m.Index - tc.nodes) / tc.wantGPL
					if m.Segment != -1 {
						t.Errorf("gateway %d has segment %d", m.Index, m.Segment)
					}
					if m.Node.Channels() != 2 {
						t.Errorf("gateway %d has %d channels", m.Index, m.Node.Channels())
					}
					if m.Shard != link {
						t.Errorf("gateway %d homed on shard %d, want %d (lower adjacent segment)", m.Index, m.Shard, link)
					}
					continue
				}
				if m.Segment != m.Index/per {
					t.Errorf("node %d in segment %d, want %d", m.Index, m.Segment, m.Index/per)
				}
				if m.Node.Channels() != 1 {
					t.Errorf("plain node %d has %d channels", m.Index, m.Node.Channels())
				}
				if m.Shard != m.Segment {
					t.Errorf("node %d on shard %d, segment %d", m.Index, m.Shard, m.Segment)
				}
			}
		})
	}
}

func TestShardedNodesMustDivide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 7 nodes over 2 segments")
		}
	}()
	cfg := shardedBase(31)
	cfg.Nodes = 7
	New(cfg)
}

// runCoupledSegments measures the LAN delay, settles the 2×4 reference
// topology for 40 s and samples it for 60 s, checking that every
// member's accuracy interval keeps true time inside it at every sample.
// It returns the cluster and the worst global precision.
func runCoupledSegments(t *testing.T, seed uint64) (*Cluster, float64) {
	t.Helper()
	c := New(shardedBase(seed))
	b := c.MeasureDelay(0, 1, 12)
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(b)
	}
	c.Start(c.Now() + 1)
	c.RunUntil(c.Now() + 40)
	var global metrics.Series
	start := c.Now()
	for x := start; x <= start+60; x += 2 {
		c.RunUntil(x)
		global.Add(c.Snapshot().Precision)
		// Interval containment must survive the relay rewrite.
		for _, m := range c.Members {
			if _, lo, hi := m.OffsetAndBounds(); lo > 0 || hi < 0 {
				t.Fatalf("t=%v node %d: accuracy interval [%v, %v] lost true time",
					x, m.Index, lo, hi)
			}
		}
	}
	return c, global.Max()
}

// TestShardedCouplesSegments: both segments converge individually and
// the relayed gateway CSPs keep them coupled globally.
func TestShardedCouplesSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("long segmented run")
	}
	c, global := runCoupledSegments(t, 22)
	if global > 15e-6 {
		t.Errorf("cross-segment precision %v", global)
	}
	if s0 := c.SegmentPrecision(0); s0 > 6e-6 {
		t.Errorf("segment 0 precision %v", s0)
	}
	if s1 := c.SegmentPrecision(1); s1 > 6e-6 {
		t.Errorf("segment 1 precision %v", s1)
	}
}

// threeSegmentChain is a 3-segment chain with two gateways per link:
// two WAN hops end to end.
func threeSegmentChain(seed uint64) Config {
	cfg := Defaults(9, seed)
	cfg.Sync.F = 1
	cfg.Segments = 3
	cfg.GatewaysPerLink = 2
	return cfg
}

// runChain starts c at 1 s, settles it until from and returns the
// global precision sampled every 2 s up to until.
func runChain(c *Cluster, from, until float64) []float64 {
	c.Start(1)
	c.RunUntil(from)
	var precision []float64
	for x := from; x <= until; x += 2 {
		c.RunUntil(x)
		precision = append(precision, c.Snapshot().Precision)
	}
	return precision
}

// TestShardedThreeSegmentsParallel runs two copies of the same 3-segment
// chain on two goroutines at once, as campaign workers do. Under the race
// detector (make race runs this package with -race) it checks that
// sharded clusters share no mutable state; it also checks that both
// copies produce the same precision trajectory bit for bit and that the
// chain converges globally.
func TestShardedThreeSegmentsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("long segmented run")
	}
	var runs [2][]float64
	var wg sync.WaitGroup
	for i := range runs {
		c := New(threeSegmentChain(23))
		if len(c.Media) != 3 || len(c.Members) != 9+2*2 {
			t.Fatalf("media = %d, members = %d", len(c.Media), len(c.Members))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = runChain(c, 60, 100)
		}()
	}
	wg.Wait()
	for k := range runs[0] {
		if runs[0][k] != runs[1][k] {
			t.Fatalf("sample %d: precision %v != %v across concurrent copies", k, runs[0][k], runs[1][k])
		}
	}
	var global metrics.Series
	for _, p := range runs[0] {
		global.Add(p)
	}
	if global.Max() > 25e-6 {
		t.Errorf("three-segment precision %v", global.Max())
	}
}
