package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ntisim/internal/adversary"
	"ntisim/internal/cluster"
	"ntisim/internal/gps"
	"ntisim/internal/harness"
	"ntisim/internal/metrics"
	"ntisim/internal/service"
	"ntisim/internal/telemetry"
	"ntisim/internal/trace"
)

// delayProbes is the RTT probe count of every calibration, matching
// the harness default.
const delayProbes = 12

// workload is one deterministic input of the benchmark. A run repeats
// rep until its time is up; every repetition rebuilds from the seed, so
// the simulated results and work counts of all repetitions must agree.
type workload struct {
	name string
	why  string
	rep  func(seed uint64, spans *spanLog, traced bool, chk *checks) (rep, error)
}

var workloads = []workload{
	{
		name: "lan32",
		why:  "flat 32-node LAN: every CSP fans out to 31 receivers with word-by-word DMA, so sim heap and comco dominate; no Group, service or adversary",
		rep:  lan32.rep,
	},
	{
		name: "wan512-serve",
		why:  "512 nodes in 16 segments serving 1e6 mmpp clients: sim.Group windows on parallel shard workers, cross-shard posts, WAN relays, 16 heaps and 512 serving generators",
		rep:  wan512.rep,
	},
	{
		name: "byz-campaign",
		why:  "144-cell byzantine preset grid through harness.Run: many short-lived small clusters, per-second sampling, adversary forgery and multi-source fusion",
		rep:  byzRep,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// checks counts the correctness checks of a run; failed/attempted is
// the run's fail fraction.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 10 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// rep is what one repetition measured.
type rep struct {
	setupS     float64 // build + calibrate
	wallS      float64 // the whole repetition
	simS       float64 // sim-seconds in the measured window
	windowS    float64 // host seconds of the measured window
	host0      hostSample
	host1      hostSample
	precisionS float64
	digest     uint64            // simulated state sampled in the window
	counts     map[string]uint64 // work counts; must repeat exactly
	layer      map[string]float64
	scale      float64 // reference seconds per host second (calibrate.go)
}

func (r *rep) cpuS() float64 { return r.host1.cpuS - r.host0.cpuS }

// clusterShape is a single-cluster workload: build and calibrate,
// settle, then a measured window sampled every sim-second.
type clusterShape struct {
	name     string
	nodes    int
	segments int // >= 2 builds the sharded WANs-of-LANs topology
	serving  bool
	settleS  float64
	windowS  int
	// traceRing is the per-node trace ring of a traced repetition, sized
	// for the whole run with DMA words on; 0 attaches no tracer. Only
	// the unsharded shape is traced: Cluster.Trace merges sharded
	// tracers through trace.MergeShards, which gives every node a ring
	// as large as the whole trace.
	traceRing int
}

var (
	lan32  = clusterShape{name: "lan32", nodes: 32, settleS: 10, windowS: 20, traceRing: 1 << 16}
	wan512 = clusterShape{name: "wan512-serve", nodes: 512, segments: 16, serving: true, settleS: 3, windowS: 5}
)

func (sh clusterShape) config(seed uint64) cluster.Config {
	cfg := cluster.Defaults(sh.nodes, seed)
	if sh.segments >= 2 {
		cfg.Segments = sh.segments
		// F = 1 keeps each WAN link at F+1 = 2 gateways; Shards stays 0,
		// min(segments, GOMAXPROCS) shard workers.
		cfg.Sync.F = 1
	}
	if sh.serving {
		cfg.Serving = service.Config{Clients: 1_000_000, Arrival: "mmpp", RegionalSkew: 1.5}
	}
	return cfg
}

func (sh clusterShape) rep(seed uint64, spans *spanLog, traced bool, chk *checks) (rep, error) {
	r := rep{counts: map[string]uint64{}, layer: map[string]float64{}}
	cfg := sh.config(seed)
	if traced {
		cfg.Telemetry = telemetry.New()
		if sh.traceRing > 0 {
			cfg.Tracer = trace.New(trace.Options{RingCap: sh.traceRing, DMAWords: true})
		}
	}
	root := spans.start("rep", 0)

	resume := pauseGC()
	t := spans.start("build", root.id)
	c := cluster.New(cfg)
	r.setupS = t.stop()
	t = spans.start("measure_delay", root.id)
	db := c.MeasureDelay(0, 1, delayProbes)
	for _, m := range c.Members {
		m.Sync.SetDelayBounds(db)
	}
	r.setupS += t.stop()
	resume()

	c.Start(c.Now() + 1)
	t = spans.start("settle", root.id)
	c.RunUntil(c.Now() + sh.settleS)
	t.stop()
	if sh.serving {
		c.StartServing(c.Now())
	}

	begin := c.Now()
	tel0, _ := c.TelemetrySnapshot()
	ev0 := c.EventCount()
	r.host0 = sampleHost()
	h := fnv.New64a()
	win := spans.start("window", root.id)
	for k := 1; k <= sh.windowS; k++ {
		c.RunUntil(begin + float64(k))
		ts := spans.start("snapshot", win.id)
		cs := c.Snapshot()
		ts.stop()
		// No traitors here, so every node is honest: containment of
		// true time by every accuracy interval (lo <= 0 <= hi).
		chk.expect(cs.Contained, "%s: containment lost at t=%.0f", sh.name, cs.TrueTime)
		hashSample(h, cs)
		r.precisionS = math.Max(r.precisionS, cs.Precision)
	}
	r.windowS = win.stop()
	r.host1 = sampleHost()
	r.simS = c.Now() - begin
	r.counts["sim.events"] = c.EventCount() - ev0

	if sh.serving {
		t = spans.start("serving_report", root.id)
		st := c.ServingReport(r.simS)
		t.stop()
		chk.expect(st.Queries > 0, "%s: no queries served", sh.name)
		r.counts["svc.queries"] = st.Queries
		hashFloats(h, st.ErrP50S, st.ErrP99S, st.ErrMaxS)
		r.layer["svc.served_p99_err_us"] = st.ErrP99S * 1e6
	}
	r.digest = h.Sum64()
	r.layer["sync.precision_us"] = r.precisionS * 1e6

	if traced {
		tel1, _ := c.TelemetrySnapshot()
		counts := windowCounts(tel0, tel1)
		chk.expect(counts["sim.events"] == r.counts["sim.events"],
			"%s: telemetry counted %d events, the kernel %d", sh.name, counts["sim.events"], r.counts["sim.events"])
		layer := layerRatios(counts, tel1, r.simS)
		if cfg.Tracer != nil {
			chk.expect(cfg.Tracer.Dropped() == 0, "%s: trace dropped %d records", sh.name, cfg.Tracer.Dropped())
			tc := traceCounts(cfg.Tracer, begin)
			for k, v := range tc {
				counts[k] = v
			}
			for k, v := range traceRatios(tc) {
				layer[k] = v
			}
		}
		if c.Group != nil {
			layer["sim.group_busy_frac"] = r.cpuS() / (r.windowS * float64(c.Group.Workers()))
		}
		for k, v := range r.layer {
			layer[k] = v
		}
		r.layer = layer
		for k, v := range counts {
			r.counts[k] = v
		}
	}
	r.wallS = root.stop()
	return r, nil
}

// pauseGC stops the garbage collector for a timed set-up and returns
// the function that restarts it and collects the set-up's garbage.
// Collector pacing during a build depends on how the shared host runs
// the second CPU the collector works on: a 32-node build took 3.7 to
// 23 ms with it on and 1.3 to 1.5 ms with it off. So set-up is timed as
// the build's own work; its garbage is collected right after, outside
// the timer, and shows in wall_s and host.gc_cpu_pct.
func pauseGC() (resume func()) {
	old := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(old)
		runtime.GC()
	}
}

// hashSample folds one sample of every clock into the digest.
func hashSample(h hash.Hash64, cs metrics.ClusterSample) {
	hashFloats(h, cs.TrueTime, cs.Precision, cs.MaxAbsOffset)
	hashFloats(h, cs.Offsets...)
	if cs.Contained {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

func hashFloats(h hash.Hash64, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// byzSeeds is the campaign's seed count: seeds seed..seed+2.
const byzSeeds = 3

// byzGolden holds the committed seed-1998 rows of the byzantine
// preset; the campaign's seed-1998 rows must match it byte for byte.
const (
	byzGolden     = "cmd/nticampaign/testdata/byzantine.golden.jsonl"
	byzGoldenSeed = 1998
)

// byzSpec is nticampaign's -preset byzantine over byzSeeds seeds, with
// one campaign worker per CPU and sequential shard execution inside
// each cell (Base.Shards = 1), so the pool never runs more goroutines
// than there are CPUs.
func byzSpec(seed uint64) harness.Spec {
	pts := harness.Cross(
		harness.DisciplineAxis(),
		harness.NodesAxis(8, 16),
		harness.TraitorsAxis(0, 0.125, 0.25, 0.375),
	)
	// The preset rescales Sync.F with each cell's node count.
	for i := range pts {
		pt := &pts[i]
		inner := pt.Mutate
		pt.Mutate = func(c *cluster.Config) {
			if inner != nil {
				inner(c)
			}
			c.Sync.F = min((c.Nodes-1)/3, 5)
		}
	}
	seeds := make([]uint64, byzSeeds)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	s := harness.Spec{
		Name:    "campaign-byzantine",
		Base:    cluster.Defaults(8, seed),
		Points:  pts,
		Seeds:   seeds,
		Workers: runtime.NumCPU(),
	}
	s.Base.Shards = 1
	s.Base.Segments = 2
	s.Base.GatewaysPerLink = 3
	s.Base.GPS = map[int]gps.Config{0: gps.DefaultReceiver(), 1: gps.DefaultReceiver()}
	s.Base.Sync.SourceF = 1
	s.Base.Adversary = adversary.Spec{
		Attack:     adversary.AttackCollude,
		MagnitudeS: 500e-6,
		Sources:    3,
		GNSS: []adversary.GNSSEvent{{
			Kind: adversary.GNSSSpoof, StartS: 25, EndS: 35,
			OffsetS: 20e-3, Sources: 1,
		}},
	}
	s.Watchdog.PrecisionDriftWindow = 8
	s.WarmupS = 10
	s.WindowS = 30
	return s
}

// cellConfig derives a cell's cluster config the way harness.Run does.
func cellConfig(s harness.Spec, cell harness.Cell) cluster.Config {
	cfg := s.Base.Clone()
	if cell.Point.Mutate != nil {
		cell.Point.Mutate(&cfg)
	}
	cfg.Seed = cell.Seed
	return cfg
}

// byzSetupBuilds is how many times a repetition builds the campaign's
// largest cell to time set-up.
const byzSetupBuilds = 3

func byzRep(seed uint64, spans *spanLog, traced bool, chk *checks) (rep, error) {
	r := rep{counts: map[string]uint64{}, layer: map[string]float64{}}
	spec := byzSpec(seed)
	root := spans.start("rep", 0)

	// Set-up: the campaign pays build + calibration once per cell inside
	// harness.Run, out of reach of a timer; time it on the largest cell.
	var largest *harness.Cell
	cells := spec.Cells()
	for i := range cells {
		if cells[i].Point.Params["nodes"] == "16" && cells[i].Point.Params["traitors"] == "0.375" {
			largest = &cells[i]
			break
		}
	}
	if largest == nil {
		return r, fmt.Errorf("byz-campaign: no nodes=16, traitors=0.375 cell in the grid")
	}
	var setups []float64
	for i := 0; i < byzSetupBuilds; i++ {
		resume := pauseGC()
		t := spans.start("build", root.id)
		c := cluster.New(cellConfig(spec, *largest))
		s := t.stop()
		t = spans.start("measure_delay", root.id)
		db := c.MeasureDelay(0, 1, delayProbes)
		for _, m := range c.Members {
			m.Sync.SetDelayBounds(db)
		}
		setups = append(setups, s+t.stop())
		resume()
		t = spans.start("snapshot", root.id)
		c.Snapshot()
		t.stop()
	}
	r.setupS = median(setups)

	var clock *cellClock
	if traced {
		spec.Telemetry = true
		clock = &cellClock{ends: map[string]time.Time{}}
		spec.Progress = clock
	}
	r.host0 = sampleHost()
	t := spans.start("campaign", root.id)
	camp := harness.Run(spec)
	t.stop()
	r.host1 = sampleHost()
	r.windowS = camp.WallS
	r.simS = camp.TotalSimS()

	// Watchdog flags exist only with telemetry on; without them the
	// traced campaign's artifact must match the untraced one.
	for i := range camp.Results {
		camp.Results[i].Health = nil
	}
	var jsonl bytes.Buffer
	if err := camp.WriteJSONL(&jsonl); err != nil {
		return r, err
	}
	h := fnv.New64a()
	h.Write(jsonl.Bytes())
	r.digest = h.Sum64()
	if seed == byzGoldenSeed {
		want, err := os.ReadFile(byzGolden)
		if err != nil {
			return r, fmt.Errorf("byz-campaign: %w", err)
		}
		rows := &harness.Campaign{}
		for _, res := range camp.Results {
			if res.Seed == byzGoldenSeed {
				rows.Results = append(rows.Results, res)
			}
		}
		var got bytes.Buffer
		if err := rows.WriteJSONL(&got); err != nil {
			return r, err
		}
		chk.expect(bytes.Equal(got.Bytes(), want), "byz-campaign: seed-%d rows differ from %s", byzGoldenSeed, byzGolden)
	}

	var agg telemetry.Snapshot
	agg.Counters = map[string]uint64{}
	agg.Gauges = map[string]telemetry.GaugeValue{}
	var widths []float64
	var busyS float64
	for i := range camp.Results {
		res := &camp.Results[i]
		chk.expect(res.Err == "", "byz-campaign: cell %s failed: %s", res.Key(), res.Err)
		if res.Params["traitors"] == "0" {
			r.precisionS = math.Max(r.precisionS, res.Precision.Max)
		}
		r.counts["sim.events"] += res.Events
		r.counts["sync.rounds"] += res.Sync.Rounds
		r.counts["sync.convergence_failed"] += res.Sync.ConvergenceFailed
		r.counts["sync.sources_rejected"] += res.Sync.SourcesRejected
		if res.Adversary != nil {
			r.counts["adv.lies"] += res.Adversary.LiesTold
		}
		busyS += res.WallS
		if n := len(res.Telemetry); n > 0 {
			last := res.Telemetry[n-1]
			for k, v := range last.Counters {
				agg.Counters[k] += v
			}
			for k, g := range last.Gauges {
				if g.Hi > agg.Gauges[k].Hi {
					agg.Gauges[k] = g
				}
			}
			if w, ok := last.Hists["sync.fused_width_s"]; ok {
				widths = append(widths, w.P50)
			}
		}
		if clock != nil {
			end := clock.ends[res.Key()]
			spans.record(0, t.id, "cell", end.Add(-time.Duration(res.WallS*float64(time.Second))), end)
		}
	}
	r.layer["sync.precision_us"] = r.precisionS * 1e6
	r.counts["harness.cells"] = uint64(len(camp.Results))
	r.layer["harness.cells"] = float64(len(camp.Results))
	r.layer["harness.cells_per_s"] = float64(len(camp.Results)) / camp.WallS
	r.layer["harness.worker_busy_frac"] = busyS / (camp.WallS * float64(camp.Workers))

	if traced {
		// Campaign telemetry is cumulative from each cell's build, so the
		// ratios cover whole cells.
		agg.Hists = map[string]telemetry.HistValue{"sync.fused_width_s": {P50: median(widths)}}
		counts := windowCounts(telemetry.Snapshot{}, agg)
		chk.expect(counts["sim.events"] == r.counts["sim.events"],
			"byz-campaign: telemetry counted %d events, the cells %d", counts["sim.events"], r.counts["sim.events"])
		for k, v := range layerRatios(counts, agg, r.simS) {
			r.layer[k] = v
		}
		for k, v := range counts {
			r.counts[k] = v
		}
	}
	r.wallS = root.stop()
	return r, nil
}

// cellClock is the campaign's progress writer in traced runs: harness
// writes one line per finished cell, "[i/n] <cell key> ...", under its
// own lock, so the write time is the cell's end.
type cellClock struct {
	ends map[string]time.Time
}

func (c *cellClock) Write(p []byte) (int, error) {
	now := time.Now()
	if _, rest, ok := strings.Cut(string(p), "] "); ok {
		if f := strings.Fields(rest); len(f) > 0 {
			c.ends[f[0]] = now
		}
	}
	return len(p), nil
}
