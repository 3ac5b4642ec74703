// End-to-end tests of the assembled system as the quickstart composes
// it on cluster: optional round-trip delay calibration, start half a
// second later, a warm-up, then a sampled measurement window.
package main

import (
	"testing"

	"ntisim/internal/clocksync"
	"ntisim/internal/cluster"
	"ntisim/internal/gps"
	"ntisim/internal/metrics"
)

// report summarizes one measurement window.
type report struct {
	precision, accuracy metrics.Series
	violations          int
	bounds              clocksync.DelayBounds
	perNode             []clocksync.Stats
}

// run builds cfg, calibrates the delay bounds when measure is set,
// starts every synchronizer, warms up for warmupS and samples measureS
// seconds once per second.
func run(cfg cluster.Config, measure bool, warmupS, measureS float64) report {
	var rep report
	c := cluster.New(cfg)
	if measure {
		rep.bounds = c.MeasureDelay(0, 1, 16)
		for _, m := range c.Members {
			m.Sync.SetDelayBounds(rep.bounds)
		}
	}
	c.Start(c.Now() + 0.5)
	c.RunUntil(c.Now() + warmupS)
	from := c.Now()
	for _, cs := range c.RunSampled(from, from+measureS, 1) {
		rep.precision.Add(cs.Precision)
		rep.accuracy.Add(cs.MaxAbsOffset)
		if !cs.Contained {
			rep.violations++
		}
	}
	for _, m := range c.Members {
		rep.perNode = append(rep.perNode, m.Sync.Stats())
	}
	return rep
}

func TestBasicRun(t *testing.T) {
	rep := run(cluster.Defaults(4, 1), false, 15, 30)
	if rep.precision.N() == 0 {
		t.Fatal("no samples")
	}
	if rep.precision.Max() > 10e-6 {
		t.Errorf("precision %v", rep.precision.Max())
	}
	if rep.violations != 0 {
		t.Errorf("%d containment violations", rep.violations)
	}
	if len(rep.perNode) != 4 {
		t.Errorf("per-node stats: %d", len(rep.perNode))
	}
	for i, st := range rep.perNode {
		if st.Rounds == 0 {
			t.Errorf("node %d ran no rounds", i)
		}
	}
}

func TestMeasuredDelays(t *testing.T) {
	rep := run(cluster.Defaults(4, 2), true, 15, 30)
	if rep.bounds.Samples == 0 {
		t.Error("delay measurement skipped")
	}
	if rep.precision.Max() > 10e-6 {
		t.Errorf("precision %v", rep.precision.Max())
	}
	// With measured (unbiased) bounds the ensemble does not creep:
	// accuracy stays bounded over the window even without GPS.
	if rep.accuracy.Max() > 500e-6 {
		t.Errorf("accuracy drifting: %v", rep.accuracy.Max())
	}
}

func TestGPSOption(t *testing.T) {
	cfg := cluster.Defaults(4, 3)
	cfg.GPS = map[int]gps.Config{0: gps.DefaultReceiver()}
	rep := run(cfg, true, 30, 60)
	if rep.accuracy.Max() > 50e-6 {
		t.Errorf("UTC accuracy with GPS: %v", rep.accuracy.Max())
	}
	if rep.perNode[0].ExternalAccepted == 0 {
		t.Error("GPS never accepted")
	}
}

func TestGPSFaultOption(t *testing.T) {
	cfg := cluster.Defaults(4, 4)
	rx := gps.DefaultReceiver()
	rx.Faults = []gps.Fault{{Kind: gps.FaultOffset, Start: 40, Magnitude: 20e-3}}
	cfg.GPS = map[int]gps.Config{0: rx}
	rep := run(cfg, true, 60, 40)
	if rep.perNode[0].ExternalRejected == 0 {
		t.Error("fault never rejected")
	}
	if rep.precision.Max() > 20e-6 {
		t.Errorf("precision under GPS fault: %v", rep.precision.Max())
	}
}
