package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"ntisim/internal/metrics"
	"ntisim/internal/network"
)

// shardedBase is the reference multi-segment topology of these tests:
// 2 segments × 4 nodes + F+1 = 2 gateways on the link.
func shardedBase(seed uint64) Config {
	cfg := Defaults(8, seed)
	cfg.Sync.F = 1
	cfg.Segments = 2
	return cfg
}

// TestShardedTopologyShape checks segment and gateway placement over
// chains of 2 and 3 segments with default and explicit gateway counts:
// regular nodes first, segment by segment, then GatewaysPerLink
// gateways per link in link order, each gateway homed on its lower
// adjacent segment with one channel on each side.
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
					if m.home != link {
						t.Errorf("gateway %d homed on segment %d, want %d (lower adjacent segment)", m.Index, m.home, link)
					}
					continue
				}
				if m.Segment != m.Index/per {
					t.Errorf("node %d in segment %d, want %d", m.Index, m.Segment, m.Index/per)
				}
				if m.Node.Channels() != 1 {
					t.Errorf("plain node %d has %d channels", m.Index, m.Node.Channels())
				}
				if m.home != m.Segment {
					t.Errorf("node %d homed on %d, segment %d", m.Index, m.home, m.Segment)
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
// multi-segment clusters share no mutable state; it also checks that both
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

// accessJitter sends a burst of frames onto each segment's medium of a
// freshly built cluster and returns, per medium, the gaps between
// consecutive acquisitions. Every frame after the first finds the
// medium busy, so each gap is one frame time plus the interframe gap
// plus one access-jitter draw from the medium's RNG stream.
func accessJitter(c *Cluster) [][]float64 {
	acquired := make([][]float64, len(c.Media))
	for i, med := range c.Media {
		for k := 0; k < 6; k++ {
			med.Send(network.Frame{Src: network.BackgroundSrc, Dst: network.BackgroundDst, Payload: make([]byte, 64)},
				func(at float64) { acquired[i] = append(acquired[i], at) })
		}
	}
	c.RunUntil(c.Now() + 0.01)
	gaps := make([][]float64, len(acquired))
	for i, at := range acquired {
		for k := 1; k < len(at); k++ {
			gaps[i] = append(gaps[i], at[k]-at[k-1])
		}
	}
	return gaps
}

// sampleDigest runs c for 30 s after a start at 1 s and hashes a
// cluster sample taken every second.
func sampleDigest(c *Cluster) uint64 {
	h := fnv.New64a()
	var b [8]byte
	c.Start(1)
	for x := 2.0; x <= 30; x++ {
		c.RunUntil(x)
		cs := c.Snapshot()
		for _, v := range append([]float64{cs.TrueTime, cs.Precision, cs.MaxAbsOffset}, cs.Offsets...) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestSegmentsKeepPrivateStreamsOnOneHeap builds a 4-segment cluster
// twice at one seed. Both builds must sample identically, and the four
// segment media must draw different access-jitter sequences: all four
// run on one simulator, so a medium that drew its stream from that
// simulator's own root instead of its segment's universe would repeat
// every other segment's jitter draw for draw.
func TestSegmentsKeepPrivateStreamsOnOneHeap(t *testing.T) {
	cfg := Defaults(8, 47)
	cfg.Sync.F = 0
	cfg.Segments = 4
	a, b := New(cfg), New(cfg)
	ja, jb := accessJitter(a), accessJitter(b)
	for i := range ja {
		if len(ja[i]) != 5 {
			t.Fatalf("medium %d: %d contended acquisitions, want 5", i, len(ja[i]))
		}
		if !slices.Equal(ja[i], jb[i]) {
			t.Fatalf("medium %d: jitter differs between builds at one seed: %v vs %v", i, ja[i], jb[i])
		}
		for k := 0; k < i; k++ {
			if slices.Equal(ja[i], ja[k]) {
				t.Errorf("media %d and %d drew the same access-jitter sequence %v", k, i, ja[i])
			}
		}
	}
	if da, db := sampleDigest(a), sampleDigest(b); da != db {
		t.Fatalf("sample digests differ between builds at one seed: %x vs %x", da, db)
	}
}
