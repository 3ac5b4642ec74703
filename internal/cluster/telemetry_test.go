package cluster

import (
	"runtime"
	"testing"

	"ntisim/internal/telemetry"
)

// measureSteadyMallocs runs an 8-node cluster to steady state and
// counts heap allocations over a 30 sim-second window.
func measureSteadyMallocs(reg *telemetry.Registry) uint64 {
	cfg := Defaults(8, 1)
	cfg.Telemetry = reg
	c := New(cfg)
	c.Start(1)
	c.Sim.RunUntil(20) // warm-up: registration, scratch growth, pool fill
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c.Sim.RunUntil(50)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestTelemetrySteadyStateAllocParity pins the cost of the telemetry
// layer at the kernel level: with no registry attached the instrumented
// hot paths are nil-handle branches and must add zero allocations; with
// a registry attached, counters/gauges/histograms update in place, so
// the steady-state window must stay within noise of the disabled run.
// (The per-op zero-alloc pins live in internal/telemetry; this test is
// the whole-cluster version.)
func TestTelemetrySteadyStateAllocParity(t *testing.T) {
	disabled := measureSteadyMallocs(nil)
	enabled := measureSteadyMallocs(telemetry.New())
	t.Logf("steady-state mallocs over 30 sim-s: disabled=%d enabled=%d", disabled, enabled)
	// The window covers ~240 node-rounds and thousands of frames; 100
	// mallocs of slack absorbs runtime noise while still catching any
	// per-event or per-round telemetry garbage.
	const slack = 100
	if enabled > disabled+slack {
		t.Errorf("telemetry-enabled run allocated %d vs %d disabled (> %d slack): hot path regressed",
			enabled, disabled, slack)
	}
}

// TestTelemetrySnapshotDisabled: a cluster without a registry reports
// no snapshot rather than a zero-valued one.
func TestTelemetrySnapshotDisabled(t *testing.T) {
	c := New(Defaults(2, 1))
	c.Start(1)
	c.Sim.RunUntil(5)
	if _, ok := c.TelemetrySnapshot(); ok {
		t.Fatal("TelemetrySnapshot reported ok without a registry")
	}
}

// TestTelemetrySnapshotMergesShards: a 2-segment cluster's one registry
// merges what every segment does — the events of the whole heap and
// the frames of both segments' media — under plain metric names.
func TestTelemetrySnapshotMergesShards(t *testing.T) {
	cfg := Defaults(8, 1)
	cfg.Segments = 2
	cfg.Sync.F = 1
	cfg.Telemetry = telemetry.New()
	c := New(cfg)
	c.Start(1)
	c.RunUntil(10)
	s, ok := c.TelemetrySnapshot()
	if !ok {
		t.Fatal("no snapshot from telemetry-enabled cluster")
	}
	if got := s.Counters[telemetry.MetricEventsFired]; got != c.EventCount() {
		t.Errorf("fired-event counter = %d, simulator fired %d", got, c.EventCount())
	}
	var sent uint64
	for _, med := range c.Media {
		n, _ := med.Stats()
		if n == 0 {
			t.Error("a segment's medium sent no frame")
		}
		sent += n
	}
	if got := s.Counters["net.frames_sent"]; got != sent {
		t.Errorf("frames-sent counter = %d, media sent %d", got, sent)
	}
	if _, ok := s.Gauges[telemetry.MetricQueueDepth]; !ok {
		t.Errorf("snapshot missing gauge %q", telemetry.MetricQueueDepth)
	}
}
