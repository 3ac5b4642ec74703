package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"ntisim/internal/telemetry"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}

	seen := map[string]bool{}
	checkName := func(name, unit, better string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q: bad charset or length", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q: bad charset or length", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name, "count", "lower")
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range b.EndToEnd {
		checkName(m.Name, m.Unit, m.Better)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name != "setup_s" && m.Bound >= setupBound {
			t.Errorf("%s: bound %v not below setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name, m.Unit, m.Better)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if d.Moves == "" {
			t.Errorf("%s: no predicted end-to-end effect", d.Name)
		}
	}
	for metric := range cpuLayers {
		if !seen[metric] {
			t.Errorf("cpu share %s is not a per-layer metric", metric)
		}
	}
}

// protoBuf is a minimal protobuf writer for synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var q protoBuf
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

func TestSelfTimeGroupsLeafFramesByPackage(t *testing.T) {
	strs := []string{"",
		"ntisim/internal/sim.siftDown",                  // 1
		"ntisim/internal/sim.(*Simulator).RunUntil",     // 2
		"ntisim/internal/comco.(*dmaJob).fire",          // 3
		"ntisim/internal/nti.ssuRx",                     // 4
		"runtime.mallocgc",                              // 5
		"ntisim/internal/kernel.(*Node).dispatch.func1", // 6
		"samples", "count", "cpu", "nanoseconds", // 7..10
	}
	var p protoBuf
	// sample_type: samples/count, cpu/nanoseconds.
	for _, st := range [][2]uint64{{7, 8}, {9, 10}} {
		var v protoBuf
		v.varint(1, st[0])
		v.varint(2, st[1])
		p.bytes(1, v.b)
	}
	// Samples: leaf location first; values (count, ns). Location ids
	// come packed and unpacked, as runtime/pprof writes them.
	sample := func(ns uint64, locs []uint64, packed bool) {
		var s protoBuf
		if packed {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, 1, ns)
		p.bytes(2, s.b)
	}
	sample(400, []uint64{1, 2, 6, 2}, true) // siftDown under RunUntil
	sample(300, []uint64{2}, false)         // RunUntil self
	sample(200, []uint64{3, 2}, false)      // comco
	sample(50, []uint64{4, 3, 2}, true)     // location 4: nti inlined into comco
	sample(50, []uint64{5, 3}, false)       // runtime leaf
	// Locations: id, then lines innermost first.
	location := func(id uint64, funcs ...uint64) {
		var l protoBuf
		l.varint(1, id)
		for _, f := range funcs {
			var ln protoBuf
			ln.varint(1, f)
			ln.varint(2, 10)
			l.bytes(4, ln.b)
		}
		p.bytes(4, l.b)
	}
	location(1, 1)
	location(2, 2)
	location(3, 3)
	location(4, 4, 3)
	location(5, 5)
	location(6, 6)
	for id := uint64(1); id <= 6; id++ {
		var f protoBuf
		f.varint(1, id)
		f.varint(2, id) // function id i is named strs[i]
		p.bytes(5, f.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	st, err := selfTimeOf(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sim": 700, "comco": 200, "nti": 50}
	if len(st.ByPkg) != len(want) {
		t.Errorf("packages = %v, want %v", st.ByPkg, want)
	}
	for pkg, ns := range want {
		if st.ByPkg[pkg] != ns {
			t.Errorf("%s self time = %d, want %d", pkg, st.ByPkg[pkg], ns)
		}
	}
	if st.Total != 1000 {
		t.Errorf("total %d, want 1000 (the runtime leaf counts only here)", st.Total)
	}
	if got := st.pct("sim"); got != 70 {
		t.Errorf("sim share = %v%%, want 70%%", got)
	}
	if _, err := selfTimeOf(gz.Bytes()[:len(gz.Bytes())/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ntisim/internal/sim.(*Simulator).RunUntil":       "sim",
		"ntisim/internal/sim.(*Group).startWorkers.func1": "sim",
		"ntisim/internal/telemetry.sortedKeys[...]":       "telemetry",
		"ntisim/internal/network.(*Medium).transmitCur":   "network",
		"runtime.mallocgc":                                   "",
		"main.clusterShape.rep":                              "",
		"ntisim/internal/discipline/sub.F":                   "discipline",
		"ntisim/internal/clocksync.(*Synchronizer).converge": "clocksync",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerRatiosFromSyntheticSnapshots(t *testing.T) {
	before := telemetry.Snapshot{Counters: map[string]uint64{
		telemetry.MetricEventsFired: 1000, "net.frames_sent": 10, "sync.rounds": 4,
		"sim.events_scheduled": 1100, "sim.events_cancelled": 5,
	}}
	after := telemetry.Snapshot{
		Counters: map[string]uint64{
			telemetry.MetricEventsFired: 7000, "net.frames_sent": 20, "net.frames_lost": 5,
			"net.contended": 2, "sync.rounds": 16, telemetry.MetricConvergenceFailed: 1,
			"sim.events_scheduled": 7100, "sim.events_cancelled": 65,
			"group.windows": 1000, "group.posts_flushed": 250, "svc.queries": 900,
			"adv.lies_told": 30, "net.relay_fwd": 40,
		},
		Gauges: map[string]telemetry.GaugeValue{
			telemetry.MetricQueueDepth + "@0": {V: 3, Hi: 120},
			telemetry.MetricQueueDepth + "@1": {V: 4, Hi: 180},
			"sim.queue_depth_other":           {Hi: 999},
			"group.imbalance":                 {Hi: 2.5},
		},
		Hists: map[string]telemetry.HistValue{"sync.fused_width_s": {P50: 6e-4}},
	}
	counts := windowCounts(before, after)
	if counts["sim.events"] != 6000 || counts["net.frames"] != 10 || counts["sync.rounds"] != 12 {
		t.Fatalf("window counts = %v", counts)
	}
	got := layerRatios(counts, after, 2)
	want := map[string]float64{
		"sim.events":                  6000,
		"sim.events_per_frame":        600,
		"sim.events_per_sim_s":        3000,
		"sim.cancel_frac":             0.01,
		"sim.queue_depth_hi":          180,
		"sim.group_windows_per_sim_s": 500,
		"sim.group_posts_per_window":  0.25,
		"sim.group_imbalance_hi":      2.5,
		"net.frames_per_sim_s":        5,
		"net.relay_fwd_per_sim_s":     20,
		"net.contended_frac":          0.2,
		"net.lost_frac":               5.0 / 15,
		"sync.rounds_per_sim_s":       6,
		"sync.fail_frac":              1.0 / 12,
		"sync.fused_width_us_p50":     600,
		"svc.queries_per_sim_s":       450,
		"adv.lies_per_frame":          3,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	// A layer the window never touched reads 0, not NaN.
	empty := layerRatios(windowCounts(before, before), before, 2)
	for k, v := range empty {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on an idle window", k, v)
		}
	}
	tr := traceRatios(map[string]uint64{
		"trace.frame_tx": 10, "trace.frame_rx": 310, "trace.dma_word": 6200,
		"trace.rx_trigger": 310, "trace.csp_arrival": 300, "trace.round_start": 10,
	})
	if tr["net.rx_per_frame"] != 31 || tr["comco.dma_words_per_rx"] != 20 ||
		tr["nti.rx_triggers_per_rx"] != 1 || tr["kernel.csp_arrivals_per_round"] != 30 {
		t.Errorf("trace ratios = %v", tr)
	}
}

// TestWorkloadSmoke runs every workload for its minimum repetitions,
// untraced and traced, at the golden seed: every check must pass and
// every declared metric must be reported.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// Workloads read the byzantine golden relative to the repository
	// root, where the benchmark runs.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	host := stampHost(byzGoldenSeed)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{seed: byzGoldenSeed, seconds: 1e-3, traced: traced, outDir: t.TempDir()}
			m, chk, err := runWorkload(w, opts, host)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if chk.failed != 0 || chk.attempted == 0 {
				t.Errorf("%s traced=%v: %d/%d checks failed: %v", w.name, traced, chk.failed, chk.attempted, chk.notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(m) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(m), len(defs))
			}
			for _, d := range defs {
				v, ok := m[d.Name]
				// Only the tracing overhead can read below 0 (noise).
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || (v.Value < 0 && d.Name != "trace.overhead_pct") {
					t.Errorf("%s traced=%v: %s = %+v", w.name, traced, d.Name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s reads %v", w.name, d.Name, v.Value)
				}
			}
			if traced && (m["sim.events"].Value <= 0 || m["sim.cpu_pct"].Value <= 0) {
				t.Errorf("%s: ledger is empty: events %v, sim cpu %v", w.name, m["sim.events"].Value, m["sim.cpu_pct"].Value)
			}
		}
	}
}
