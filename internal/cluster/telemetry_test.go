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

// TestTelemetrySnapshotMergesShards: a sharded cluster's snapshot sums
// per-shard counters by name and keeps gauges shard-tagged.
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
	if s.Counters["sim.events_fired"] == 0 {
		t.Error("merged fired-event counter is zero")
	}
	if s.Counters["net.frames_sent"] == 0 {
		t.Error("merged frames-sent counter is zero")
	}
	for _, key := range []string{
		telemetry.MetricShardEvents + "@0",
		telemetry.MetricShardEvents + "@1",
		telemetry.MetricQueueDepth + "@0",
		telemetry.MetricQueueDepth + "@1",
	} {
		if _, ok := s.Gauges[key]; !ok {
			t.Errorf("snapshot missing shard gauge %q", key)
		}
	}
	if s.Counters["group.windows"] == 0 {
		t.Error("driver window counter is zero")
	}
}
