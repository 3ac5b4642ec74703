package main

// metricDef declares one reported metric. The tables below are the
// benchmark's contract: BENCHMARK.json lists the same names and units
// (TestBenchmarkJSONMatchesTables keeps them in step), and a later
// performance change names its prediction from the Moves column — which
// end-to-end metric the layer metric should move, on which workload,
// and where it should not move at all.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// telemetry, tracing and profiling off, as medians over a run's
// repetitions. Host times are in reference seconds (calibrate.go).
// Simulated results (precision, served error) are not among them: they
// are identity guards, bit-identical across repetitions of a seed (the
// digest check) and reported in the ledger, and their spread from seed
// to seed comes from the model's oscillator draws, not from the host
// (over ten seeds: 27% on wan512-serve, 18% on lan32, 12% on
// byz-campaign).
var endToEnd = []metricDef{
	{Name: "sim_s_per_s", Unit: "sim_s/s", Better: "higher", Bound: 0.24,
		Moves: "sim-seconds per reference second over the measured window (campaign: total cell sim-s / harness.Run wall)"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.24,
		Moves: "reference seconds for one repetition, build and settle included"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "reference seconds in cluster.New + MeasureDelay + SetDelayBounds with the collector paused (campaign: median of three builds of its largest cell)"},
	{Name: "cpu_s_per_sim_s", Unit: "s/sim_s", Better: "lower", Bound: 0.24,
		Moves: "process user+sys CPU per sim-second, scaled like the host times; shows a parallel wall gain that burns CPU"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2,
		Moves: "peak resident memory of the process"},
}

// perLayer are the traced run's numbers, named after the packages.
// Counts are over the measured window (the whole campaign for
// byz-campaign) and repeat exactly for a seed; a layer a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	// sim: the event kernel.
	{Name: "sim.events", Unit: "count", Better: "lower", Moves: "count behind sim.events_per_*"},
	{Name: "sim.events_per_frame", Unit: "events/frame", Better: "lower", Moves: "sim_s_per_s: lan32 most, wan512-serve less, byz-campaign least"},
	{Name: "sim.events_per_sim_s", Unit: "1/sim_s", Better: "lower", Moves: "sim_s_per_s: lan32 most, wan512-serve less, byz-campaign least"},
	{Name: "sim.cancel_frac", Unit: "ratio", Better: "lower", Moves: "sim_s_per_s: lan32, wan512-serve"},
	{Name: "sim.queue_depth_hi", Unit: "count", Better: "lower", Moves: "sim_s_per_s: lan32 (heap depth sets siftDown cost)"},
	{Name: "sim.cpu_pct", Unit: "%", Better: "lower", Moves: "sim_s_per_s: lan32 most, wan512-serve less, byz-campaign least"},
	// sim.Group: the conservative parallel kernel.
	{Name: "sim.group_windows", Unit: "count", Better: "lower", Moves: "count behind sim.group_windows_per_sim_s"},
	{Name: "sim.group_posts", Unit: "count", Better: "lower", Moves: "count behind sim.group_posts_per_window"},
	{Name: "sim.group_windows_per_sim_s", Unit: "1/sim_s", Better: "lower", Moves: "sim_s_per_s, cpu_s_per_sim_s: wan512-serve; no change on lan32"},
	{Name: "sim.group_posts_per_window", Unit: "posts/window", Better: "lower", Moves: "sim_s_per_s, cpu_s_per_sim_s: wan512-serve; no change on lan32"},
	{Name: "sim.group_imbalance_hi", Unit: "ratio", Better: "lower", Moves: "sim_s_per_s, cpu_s_per_sim_s: wan512-serve; no change on lan32"},
	{Name: "sim.group_busy_frac", Unit: "ratio", Better: "higher", Moves: "sim_s_per_s, cpu_s_per_sim_s: wan512-serve (barrier waiting); no change on lan32"},
	// network: medium, WAN links and relays.
	{Name: "net.frames", Unit: "count", Better: "lower", Moves: "count behind net.frames_per_sim_s"},
	{Name: "net.frames_per_sim_s", Unit: "1/sim_s", Better: "lower", Moves: "sim_s_per_s: wan512-serve, lan32"},
	{Name: "net.rx_per_frame", Unit: "rx/frame", Better: "lower", Moves: "sim_s_per_s: lan32 (traced on the unsharded workload only)"},
	{Name: "net.relay_fwd_per_sim_s", Unit: "1/sim_s", Better: "lower", Moves: "sim_s_per_s: wan512-serve; no change on lan32"},
	{Name: "net.contended_frac", Unit: "ratio", Better: "lower", Moves: "sim_s_per_s: wan512-serve, lan32"},
	{Name: "net.lost_frac", Unit: "ratio", Better: "lower", Moves: "sim_s_per_s: wan512-serve, lan32"},
	{Name: "net.cpu_pct", Unit: "%", Better: "lower", Moves: "sim_s_per_s: wan512-serve, lan32"},
	// comco: the 82596 DMA engine.
	{Name: "comco.dma_words", Unit: "count", Better: "lower", Moves: "count behind comco.dma_words_per_rx"},
	{Name: "comco.dma_words_per_rx", Unit: "words/rx", Better: "lower", Moves: "sim_s_per_s: lan32"},
	{Name: "comco.cpu_pct", Unit: "%", Better: "lower", Moves: "sim_s_per_s: lan32"},
	// nti, utcsu, oscillator, timefmt, kernel: the stamping data path.
	{Name: "nti.rx_triggers_per_rx", Unit: "trig/rx", Better: "lower", Moves: "sim_s_per_s: lan32"},
	{Name: "kernel.csp_arrivals_per_round", Unit: "csp/round", Better: "higher", Moves: "sim_s_per_s: lan32 (useful CSPs per node-round)"},
	{Name: "nti.cpu_pct", Unit: "%", Better: "lower", Moves: "sim_s_per_s: lan32"},
	{Name: "utcsu.cpu_pct", Unit: "%", Better: "lower", Moves: "sim_s_per_s: lan32"},
	{Name: "oscillator.cpu_pct", Unit: "%", Better: "lower", Moves: "sim_s_per_s: lan32"},
	{Name: "timefmt.cpu_pct", Unit: "%", Better: "lower", Moves: "sim_s_per_s: lan32"},
	{Name: "kernel.cpu_pct", Unit: "%", Better: "lower", Moves: "sim_s_per_s: lan32"},
	// clocksync, interval, discipline: rounds and fusion.
	{Name: "sync.rounds", Unit: "count", Better: "lower", Moves: "count behind sync.rounds_per_sim_s"},
	{Name: "sync.rounds_per_sim_s", Unit: "1/sim_s", Better: "lower", Moves: "wall_s: byz-campaign; sync.precision_us must not move"},
	{Name: "sync.fail_frac", Unit: "ratio", Better: "lower", Moves: "wall_s: byz-campaign; sync.precision_us must not move"},
	{Name: "sync.precision_us", Unit: "us", Better: "lower", Moves: "identity guard: worst honest-node precision over the window (campaign: traitor-free cells); must not move"},
	{Name: "sync.fused_width_us_p50", Unit: "us", Better: "lower", Moves: "identity guard: must not move"},
	{Name: "sync.sources_rejected", Unit: "count", Better: "lower", Moves: "wall_s: byz-campaign; sync.precision_us must not move"},
	{Name: "clocksync.cpu_pct", Unit: "%", Better: "lower", Moves: "wall_s: byz-campaign"},
	{Name: "interval.cpu_pct", Unit: "%", Better: "lower", Moves: "wall_s: byz-campaign"},
	{Name: "discipline.cpu_pct", Unit: "%", Better: "lower", Moves: "wall_s: byz-campaign"},
	// service: client-population load.
	{Name: "svc.queries", Unit: "count", Better: "higher", Moves: "count behind svc.queries_per_sim_s"},
	{Name: "svc.queries_per_sim_s", Unit: "1/sim_s", Better: "higher", Moves: "sim_s_per_s: wan512-serve; served error must not move"},
	{Name: "svc.served_p99_err_us", Unit: "us", Better: "lower", Moves: "identity guard on wan512-serve: must not move"},
	{Name: "svc.cpu_pct", Unit: "%", Better: "lower", Moves: "sim_s_per_s: wan512-serve"},
	// adversary: Byzantine forgery.
	{Name: "adv.lies", Unit: "count", Better: "lower", Moves: "count behind adv.lies_per_frame"},
	{Name: "adv.lies_per_frame", Unit: "lies/frame", Better: "lower", Moves: "wall_s: byz-campaign"},
	{Name: "adversary.cpu_pct", Unit: "%", Better: "lower", Moves: "wall_s: byz-campaign"},
	// harness: the campaign worker pool.
	{Name: "harness.cells", Unit: "count", Better: "higher", Moves: "count behind harness.cells_per_s"},
	{Name: "harness.cells_per_s", Unit: "1/s", Better: "higher", Moves: "wall_s: byz-campaign only"},
	{Name: "harness.worker_busy_frac", Unit: "ratio", Better: "higher", Moves: "wall_s: byz-campaign only (tail idling)"},
	// cluster and metrics: timed public calls.
	{Name: "cluster.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s: wan512-serve; wall_s: byz-campaign"},
	{Name: "cluster.measure_delay_ms", Unit: "ms", Better: "lower", Moves: "setup_s: wan512-serve; wall_s: byz-campaign"},
	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower", Moves: "setup_s: wan512-serve; wall_s: byz-campaign"},
	// Instrumentation and host runtime.
	{Name: "trace.cpu_pct", Unit: "%", Better: "lower", Moves: "tracing cost inside the traced run"},
	{Name: "telemetry.cpu_pct", Unit: "%", Better: "lower", Moves: "telemetry cost inside the traced run"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "traced vs untraced sim_s_per_s of the same run"},
	{Name: "host.allocs_per_sim_s", Unit: "1/sim_s", Better: "lower", Moves: "peak_rss_mb, sim_s_per_s: wan512-serve"},
	{Name: "host.alloc_bytes_per_sim_s", Unit: "B/sim_s", Better: "lower", Moves: "peak_rss_mb, sim_s_per_s: wan512-serve"},
	{Name: "host.gc_cpu_pct", Unit: "%", Better: "lower", Moves: "peak_rss_mb, sim_s_per_s: wan512-serve (GC share of CPU over the whole repetition, build included)"},
}

// cpuLayers maps the *.cpu_pct metrics to the package whose self time
// they report.
var cpuLayers = map[string]string{
	"sim.cpu_pct":        "sim",
	"net.cpu_pct":        "network",
	"comco.cpu_pct":      "comco",
	"nti.cpu_pct":        "nti",
	"utcsu.cpu_pct":      "utcsu",
	"oscillator.cpu_pct": "oscillator",
	"timefmt.cpu_pct":    "timefmt",
	"kernel.cpu_pct":     "kernel",
	"clocksync.cpu_pct":  "clocksync",
	"interval.cpu_pct":   "interval",
	"discipline.cpu_pct": "discipline",
	"svc.cpu_pct":        "service",
	"adversary.cpu_pct":  "adversary",
	"trace.cpu_pct":      "trace",
	"telemetry.cpu_pct":  "telemetry",
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
