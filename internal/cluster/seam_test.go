package cluster

import (
	"testing"

	"ntisim/internal/adversary"
	"ntisim/internal/gps"
	"ntisim/internal/service"
	"ntisim/internal/telemetry"
	"ntisim/internal/trace"
)

// TestInstrumentSeamReachesEveryLayer builds one 2-segment cluster with
// every optional layer attached — multi-source GPS under a GNSS outage,
// traitors, serving clients and background load — on a tracer that
// records dispatches and DMA words and a telemetry registry. Each layer
// reads its instruments from the simulator at construction, so
// a layer that lost them would show up here as a silent counter or a
// missing record kind.
func TestInstrumentSeamReachesEveryLayer(t *testing.T) {
	const sources = 3
	cfg := Defaults(8, 11)
	cfg.Segments = 2
	cfg.Sync.F = 1
	cfg.Sync.SourceF = 1
	cfg.GPS = map[int]gps.Config{0: gps.DefaultReceiver(), 4: gps.DefaultReceiver()}
	cfg.Adversary = adversary.Spec{
		TraitorFrac: 0.25,
		Attack:      adversary.AttackCollude,
		Sources:     sources,
		GNSS:        []adversary.GNSSEvent{{Kind: adversary.GNSSOutage, StartS: 2, EndS: 3, Sources: sources}},
	}
	cfg.Serving = service.Config{Clients: 10_000, Arrival: "poisson"}
	cfg.BackgroundLoad = 0.1
	cfg.Tracer = trace.New(trace.Options{Dispatch: true, DMAWords: true})
	cfg.Telemetry = telemetry.New()
	c := New(cfg)
	c.Start(0.5)
	c.StartServing(0.5)
	c.RunUntil(4)

	snap, ok := c.TelemetrySnapshot()
	if !ok {
		t.Fatal("no telemetry snapshot from an instrumented cluster")
	}
	for _, counter := range []struct{ layer, name string }{
		{"sim", telemetry.MetricEventsFired},
		{"medium", "net.frames_sent"},
		{"WAN link port", "net.wan_tx"},
		{"WAN link port", "net.wan_rx"},
		{"relay", "net.relay_fwd"},
		{"clocksync", "sync.rounds"},
		{"service", "svc.queries"},
		{"adversary", adversary.MetricLiesTold},
	} {
		if snap.Counters[counter.name] == 0 {
			t.Errorf("%s: counter %s is zero", counter.layer, counter.name)
		}
	}

	kinds := map[trace.Kind]int{}
	onsets := map[int32]int{}
	gatewayWAN := 0 // COMCO records on a gateway's AttachSegment channel
	for _, r := range cfg.Tracer.Records() {
		kinds[r.Kind]++
		switch {
		case r.Kind == trace.KindFaultOnset:
			onsets[r.Node]++
		case r.Kind == trace.KindRxTrigger && r.Ch == 1:
			gatewayWAN++
		}
	}
	if gatewayWAN == 0 {
		t.Error("comco: no rx-trigger record on a gateway's second channel")
	}
	for _, k := range []struct {
		layer string
		kind  trace.Kind
	}{
		{"sim", trace.KindEventFire},
		{"medium", trace.KindFrameTx},
		{"comco", trace.KindDMAWord},
		{"comco", trace.KindRxTrigger},
		{"kernel", trace.KindCSPSend},
		{"clocksync", trace.KindRoundStart},
		{"service", trace.KindQueryServed},
		{"adversary", trace.KindLie},
	} {
		if kinds[k.kind] == 0 {
			t.Errorf("%s: no %s record in the trace", k.layer, k.kind)
		}
	}
	// Every reference source of every GPS node enters the outage, and
	// each receiver attributes its record to its node.
	for node := range cfg.GPS {
		if got := onsets[int32(node)]; got != sources {
			t.Errorf("gps: node %d has %d fault-onset records, want one per source (%d)", node, got, sources)
		}
	}
}
