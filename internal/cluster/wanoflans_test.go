package cluster

import (
	"testing"

	"ntisim/internal/metrics"
)

// The tests in this file check the paper's footnote-2 claim on the
// multi-segment builder: the approach extends to WANs-of-LANs when every
// gateway node carries an NTI, one channel on each adjacent segment.

// checkGatewaysStamp fails t unless every gateway's NTI has triggered
// transmit and receive stamps on both of its channels.
func checkGatewaysStamp(t *testing.T, c *Cluster) {
	t.Helper()
	gws := 0
	for _, m := range c.Members {
		if m.Segment != -1 {
			continue
		}
		gws++
		for ch := 0; ch < 2; ch++ {
			if tx, rx := m.Node.NTI.ChannelStats(ch); tx == 0 || rx == 0 {
				t.Errorf("gateway %d channel %d: tx=%d rx=%d stamps", m.Index, ch, tx, rx)
			}
		}
	}
	if gws == 0 {
		t.Fatal("no gateways")
	}
}

// TestWANOfLANsTopology checks the default gateway count: F+1 redundant
// gateways per link, so an f-trimming convergence function on either
// side still hears a correct gateway when f of them fail. Each gateway
// has an NTI channel on both segments; plain nodes have one.
func TestWANOfLANsTopology(t *testing.T) {
	for _, f := range []int{1, 2} {
		cfg := Defaults(8, 21)
		cfg.Sync.F = f
		cfg.Segments = 2
		c := New(cfg)
		if len(c.Media) != 2 {
			t.Fatalf("F=%d: media = %d", f, len(c.Media))
		}
		if want := 8 + f + 1; len(c.Members) != want {
			t.Fatalf("F=%d: members = %d, want %d", f, len(c.Members), want)
		}
		gws := 0
		for _, m := range c.Members {
			if m.Segment == -1 {
				gws++
				if m.Node.Channels() != 2 {
					t.Errorf("F=%d: gateway has %d channels", f, m.Node.Channels())
				}
			} else if m.Node.Channels() != 1 {
				t.Errorf("F=%d: plain node has %d channels", f, m.Node.Channels())
			}
		}
		if gws != f+1 {
			t.Errorf("F=%d: gateways = %d, want %d", f, gws, f+1)
		}
	}
}

// TestWANOfLANsCouplesSegments: two segments stay coupled through their
// gateways, and every gateway stamps frames in both directions on both
// of its channels.
func TestWANOfLANsCouplesSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("long segmented run")
	}
	c, global := runCoupledSegments(t, 24)
	if global > 15e-6 {
		t.Errorf("cross-segment precision %v", global)
	}
	checkGatewaysStamp(t, c)
}

// TestWANOfLANsThreeSegments: with three segments the middle one hosts
// gateways of both links; the chain stays bounded over two hops end to
// end and the gateways of both links stamp on both channels.
func TestWANOfLANsThreeSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("long segmented run")
	}
	c := New(threeSegmentChain(25))
	var global metrics.Series
	for _, p := range runChain(c, 60, 120) {
		global.Add(p)
	}
	if global.Max() > 40e-6 {
		t.Errorf("three-segment precision %v", global.Max())
	}
	checkGatewaysStamp(t, c)
}
