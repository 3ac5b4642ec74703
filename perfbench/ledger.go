package main

import (
	"sort"
	"strings"

	"ntisim/internal/telemetry"
	"ntisim/internal/trace"
)

// gaugeHi is the highest high-water mark of a gauge across its shard
// keys ("name" unsharded, "name@N" per shard).
func gaugeHi(s telemetry.Snapshot, name string) float64 {
	hi := 0.0
	for k, g := range s.Gauges {
		if (k == name || strings.HasPrefix(k, name+"@")) && g.Hi > hi {
			hi = g.Hi
		}
	}
	return hi
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// telemetryCounts are the registry counters the ledger reads, keyed by
// their per-layer metric name. Each is a count over the measured
// window and must repeat exactly for a seed.
var telemetryCounts = map[string]string{
	"sim.events":        telemetry.MetricEventsFired,
	"sim.group_windows": "group.windows",
	"sim.group_posts":   "group.posts_flushed",
	"net.frames":        "net.frames_sent",
	"sync.rounds":       "sync.rounds",
	"svc.queries":       "svc.queries",
	"adv.lies":          "adv.lies_told",
	// Counts that feed fractions only.
	"sim.events_scheduled":    "sim.events_scheduled",
	"sim.events_cancelled":    "sim.events_cancelled",
	"net.frames_lost":         "net.frames_lost",
	"net.contended":           "net.contended",
	"net.relay_fwd":           "net.relay_fwd",
	"sync.convergence_failed": telemetry.MetricConvergenceFailed,
	"sync.sources_rejected":   "sync.sources_rejected",
}

// windowCounts reads every ledger counter's growth over a window.
func windowCounts(before, after telemetry.Snapshot) map[string]uint64 {
	out := make(map[string]uint64, len(telemetryCounts))
	for metric, counter := range telemetryCounts {
		out[metric] = after.Counters[counter] - before.Counters[counter]
	}
	return out
}

// layerRatios derives the per-layer rates and fractions from the
// window's counts, simS sim-seconds long, and the end-of-window
// snapshot's gauges and histograms.
func layerRatios(c map[string]uint64, end telemetry.Snapshot, simS float64) map[string]float64 {
	f := func(k string) float64 { return float64(c[k]) }
	out := map[string]float64{
		"sim.events_per_frame":        ratio(f("sim.events"), f("net.frames")),
		"sim.events_per_sim_s":        ratio(f("sim.events"), simS),
		"sim.cancel_frac":             ratio(f("sim.events_cancelled"), f("sim.events_scheduled")),
		"sim.queue_depth_hi":          gaugeHi(end, telemetry.MetricQueueDepth),
		"sim.group_windows_per_sim_s": ratio(f("sim.group_windows"), simS),
		"sim.group_posts_per_window":  ratio(f("sim.group_posts"), f("sim.group_windows")),
		"sim.group_imbalance_hi":      gaugeHi(end, "group.imbalance"),
		"net.frames_per_sim_s":        ratio(f("net.frames"), simS),
		"net.relay_fwd_per_sim_s":     ratio(f("net.relay_fwd"), simS),
		"net.contended_frac":          ratio(f("net.contended"), f("net.frames")),
		"net.lost_frac":               ratio(f("net.frames_lost"), f("net.frames")+f("net.frames_lost")),
		"sync.rounds_per_sim_s":       ratio(f("sync.rounds"), simS),
		"sync.fail_frac":              ratio(f("sync.convergence_failed"), f("sync.rounds")),
		"sync.sources_rejected":       f("sync.sources_rejected"),
		"svc.queries_per_sim_s":       ratio(f("svc.queries"), simS),
		"adv.lies_per_frame":          ratio(f("adv.lies"), f("net.frames")),
	}
	if h, ok := end.Hists["sync.fused_width_s"]; ok {
		out["sync.fused_width_us_p50"] = h.P50 * 1e6
	}
	for _, k := range []string{"sim.events", "sim.group_windows", "sim.group_posts", "net.frames", "sync.rounds", "svc.queries", "adv.lies"} {
		out[k] = f(k)
	}
	return out
}

// traceKinds are the record kinds the ledger counts, keyed by count
// name.
var traceKinds = map[string]trace.Kind{
	"trace.frame_tx":    trace.KindFrameTx,
	"trace.frame_rx":    trace.KindFrameRx,
	"trace.dma_word":    trace.KindDMAWord,
	"trace.rx_trigger":  trace.KindRxTrigger,
	"trace.csp_arrival": trace.KindCSPArrival,
	"trace.round_start": trace.KindRoundStart,
}

// traceCounts counts the records emitted at or after sim time from, by
// kind.
func traceCounts(tr *trace.Tracer, from float64) map[string]uint64 {
	byKind := map[trace.Kind]uint64{}
	for _, r := range tr.Records() {
		if r.T >= from {
			byKind[r.Kind]++
		}
	}
	out := make(map[string]uint64, len(traceKinds))
	for name, k := range traceKinds {
		out[name] = byKind[k]
	}
	return out
}

// traceRatios derives the data-path ratios from record counts.
func traceRatios(c map[string]uint64) map[string]float64 {
	f := func(k string) float64 { return float64(c[k]) }
	return map[string]float64{
		"net.rx_per_frame":              ratio(f("trace.frame_rx"), f("trace.frame_tx")),
		"comco.dma_words":               f("trace.dma_word"),
		"comco.dma_words_per_rx":        ratio(f("trace.dma_word"), f("trace.frame_rx")),
		"nti.rx_triggers_per_rx":        ratio(f("trace.rx_trigger"), f("trace.frame_rx")),
		"kernel.csp_arrivals_per_round": ratio(f("trace.csp_arrival"), f("trace.round_start")),
	}
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
