// Command perfbench is the ntisim benchmark. It runs three
// deterministic workloads (lan32, wan512-serve, byz-campaign; see
// workloads.go for why each was chosen), checks the simulated results,
// and prints every end-to-end metric by name and unit. With --trace 1
// the same workload runs with a telemetry registry, a cross-layer
// tracer and a CPU profile attached and prints the per-layer ledger
// instead; its spans, CPU profile and ledger are written to --out.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh                                 # all workloads, seed 1998
//	bash perfbench/run.sh --workload lan32 --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. attempted counts the
// correctness checks (containment at every sample, identical digests
// and work counts across repetitions, no failed campaign cells, the
// byzantine golden at seed 1998); failed/attempted is the fail
// fraction. With --workload all, peak_rss_mb is the process's peak so
// far; a run of one workload measures it alone.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// minReps is the fewest repetitions of a workload per run (per phase
// in a traced run), so every run compares at least two.
const minReps = 2

type options struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
}

type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		workloadName = flag.String("workload", "all", "workload: all, "+strings.Join(names, ", "))
		seed         = flag.Uint64("seed", 1998, "input seed")
		seconds      = flag.Float64("seconds", 20, "host seconds to measure each workload for")
		traceFlag    = flag.Int("trace", 0, "1 runs the traced ledger run instead of the end-to-end run")
		outDir       = flag.String("out", ".bench_build/out", "directory for the traced run's spans, profile and ledger")
	)
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0, --trace 0|1 and no positional arguments")
		os.Exit(2)
	}
	run := workloads
	if *workloadName != "all" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (choices: all, %s)\n", *workloadName, strings.Join(names, ", "))
			os.Exit(2)
		}
		run = []workload{w}
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, outDir: *outDir}

	host := stampHost(opts.seed)
	stamp, _ := json.Marshal(host)
	fmt.Printf("host %s\n", stamp)

	total := outcome{Metrics: map[string]metricValue{}}
	for _, w := range run {
		m, chk, err := runWorkload(w, opts, host)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printMetrics(w.name, m, opts.traced)
		fmt.Printf("%-13s fail_frac %d/%d\n", w.name, chk.failed, chk.attempted)
		for _, n := range chk.notes {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", n)
		}
		total.Attempted += chk.attempted
		total.Failed += chk.failed
		for k, v := range m {
			if len(run) > 1 {
				k = w.name + ":" + k
			}
			total.Metrics[k] = v
		}
	}
	total.Correct = total.Failed == 0
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func printMetrics(workload string, m map[string]metricValue, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := m[d.Name]
		fmt.Printf("%-13s %-30s %16.6g %-12s", workload, d.Name, v.Value, v.Unit)
		if traced {
			fmt.Printf(" moves %s", d.Moves)
		}
		fmt.Println()
	}
}

// runWorkload repeats w for opts.seconds and reduces the repetitions
// to the run's metrics: medians of the host timings, and the
// repetitions' shared simulated results and counts.
func runWorkload(w workload, opts options, host hostStamp) (map[string]metricValue, *checks, error) {
	chk := &checks{}
	if !opts.traced {
		reps, err := repeat(w, opts.seed, opts.seconds, nil, false, chk)
		if err != nil {
			return nil, nil, err
		}
		compareReps(w.name, reps, chk)
		fmt.Printf("%-13s %d repetitions, host scale median %.3f reference s per host s\n",
			w.name, len(reps), median(collect(reps, func(r *rep) float64 { return r.scale })))
		return endToEndMetrics(reps), chk, nil
	}

	// A third of the time untraced, for the overhead baseline; the rest
	// traced.
	base, err := repeat(w, opts.seed, opts.seconds/3, nil, false, chk)
	if err != nil {
		return nil, nil, err
	}
	spans := newSpanLog()
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced, err := repeat(w, opts.seed, opts.seconds*2/3, spans, true, chk)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	compareReps(w.name, append(append([]rep(nil), base...), traced...), chk)
	st, err := selfTimeOf(profile.Bytes())
	if err != nil {
		return nil, nil, err
	}
	m := layerMetrics(traced, spans, st)
	m["trace.overhead_pct"] = metricValue{
		Value: 100 * (median(simRates(base))/median(simRates(traced)) - 1), Unit: "%"}
	if err := writeTraced(opts, w.name, host, m, traced, spans, profile.Bytes()); err != nil {
		return nil, nil, err
	}
	return m, chk, nil
}

// repeat runs w at least minReps times and until budget host seconds
// have passed. A forced collection between repetitions keeps one
// repetition's garbage out of the next one's timings, and the
// calibration kernel before and after each gives its host-speed scale.
func repeat(w workload, seed uint64, budget float64, spans *spanLog, traced bool, chk *checks) ([]rep, error) {
	var reps []rep
	var cal calibration
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < budget {
		runtime.GC()
		before := hostScale(&cal)
		h0 := sampleHost()
		r, err := w.rep(seed, spans, traced, chk)
		if err != nil {
			return nil, err
		}
		h1 := sampleHost()
		after := hostScale(&cal)
		r.scale = (before + after) / 2
		r.layer["host.gc_cpu_pct"] = 100 * ratio(h1.gcCPUS-h0.gcCPUS, h1.usedCPU-h0.usedCPU)
		reps = append(reps, r)
	}
	runtime.GC()
	return reps, nil
}

// compareReps checks that every repetition sampled the same simulated
// state and did exactly the same work: tracing, telemetry and profiling
// must not perturb the simulation. Traced repetitions carry more counts
// than untraced ones, so each repetition's counts are compared with the
// first repetition of its kind, or with the first repetition on the
// counts they share.
func compareReps(name string, reps []rep, chk *checks) {
	for i, r := range reps[1:] {
		chk.expect(r.digest == reps[0].digest, "%s: repetition %d sampled state digest %x, first %x", name, i+1, r.digest, reps[0].digest)
		ref := reps[0]
		for _, q := range reps[:i+1] {
			if len(q.counts) == len(r.counts) {
				ref = q
				break
			}
		}
		for k, v := range r.counts {
			if w, ok := ref.counts[k]; ok {
				chk.expect(w == v, "%s: repetition %d counted %s=%d, first %d", name, i+1, k, v, w)
			}
		}
	}
}

func simRates(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i := range reps {
		out[i] = reps[i].simS / (reps[i].windowS * reps[i].scale)
	}
	return out
}

func collect(reps []rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i := range reps {
		out[i] = f(&reps[i])
	}
	return out
}

func endToEndMetrics(reps []rep) map[string]metricValue {
	vals := map[string]float64{
		"sim_s_per_s":     median(simRates(reps)),
		"wall_s":          median(collect(reps, func(r *rep) float64 { return r.wallS * r.scale })),
		"setup_s":         median(collect(reps, func(r *rep) float64 { return r.setupS * r.scale })),
		"cpu_s_per_sim_s": median(collect(reps, func(r *rep) float64 { return r.cpuS() * r.scale / r.simS })),
		"peak_rss_mb":     peakRSSMB(),
		"precision_us":    median(collect(reps, func(r *rep) float64 { return r.precisionS * 1e6 })),
	}
	return withUnits(endToEnd, vals)
}

// layerMetrics reduces the traced repetitions to the ledger: the median
// of each layer value (counts and simulated ratios are identical across
// repetitions), CPU self-time shares from the traced phase's profile,
// and the timed public calls from the spans.
func layerMetrics(reps []rep, spans *spanLog, st selfTime) map[string]metricValue {
	vals := map[string]float64{}
	for k := range reps[0].layer {
		vals[k] = median(collect(reps, func(r *rep) float64 { return r.layer[k] }))
	}
	for metric, pkg := range cpuLayers {
		vals[metric] = st.pct(pkg)
	}
	vals["cluster.build_ms"] = median(spans.durations("build")) * 1e3
	vals["cluster.measure_delay_ms"] = median(spans.durations("measure_delay")) * 1e3
	vals["metrics.snapshot_us"] = median(spans.durations("snapshot")) * 1e6
	vals["host.allocs_per_sim_s"] = median(collect(reps, func(r *rep) float64 {
		return float64(r.host1.mallocs-r.host0.mallocs) / r.simS
	}))
	vals["host.alloc_bytes_per_sim_s"] = median(collect(reps, func(r *rep) float64 {
		return float64(r.host1.bytes-r.host0.bytes) / r.simS
	}))
	return withUnits(perLayer, vals)
}

// withUnits keeps exactly the metrics defs declares, 0 where a
// workload does not exercise the layer.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// writeTraced stores a traced run's artifacts: the spans, the CPU
// profile of the traced phase, and the ledger with its host stamp.
func writeTraced(opts options, name string, host hostStamp, m map[string]metricValue, reps []rep, spans *spanLog, profile []byte) error {
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(opts.outDir, fmt.Sprintf("%s-seed%d", name, opts.seed))
	if err := spans.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return err
	}
	counts := reps[0].counts
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ledger := struct {
		Host     hostStamp              `json:"host"`
		Workload string                 `json:"workload"`
		Reps     int                    `json:"reps"`
		Counts   map[string]uint64      `json:"counts"`
		Metrics  map[string]metricValue `json:"metrics"`
	}{host, name, len(reps), counts, m}
	b, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".ledger.json", append(b, '\n'), 0o644)
}
