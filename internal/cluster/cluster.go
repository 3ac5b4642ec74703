// Package cluster assembles complete multi-node systems — the paper's
// Fig. 2 architecture replicated N times on a shared medium — and
// provides the measurement scaffolding used by the experiments: the
// two-node ε setup of §4 and the 16-node prototype the paper announces.
//
// One builder, New, serves every topology, and every topology runs on
// one sim.Simulator: a flat LAN is the Segments ≤ 1 case, and the
// WANs-of-LANs topology of the paper's footnote 2 (wan.go) adds
// gateway nodes whose WAN frames are scheduled WAN-delay later on the
// same event heap. See DESIGN.md §8.
package cluster

import (
	"fmt"

	"ntisim/internal/adversary"
	"ntisim/internal/clocksync"
	"ntisim/internal/comco"
	"ntisim/internal/cpu"
	"ntisim/internal/gps"
	"ntisim/internal/kernel"
	"ntisim/internal/metrics"
	"ntisim/internal/network"
	"ntisim/internal/oscillator"
	"ntisim/internal/service"
	"ntisim/internal/sim"
	"ntisim/internal/telemetry"
	"ntisim/internal/timefmt"
	"ntisim/internal/trace"
	"ntisim/internal/utcsu"
)

// Config assembles a cluster.
//
// A Config is mostly a value type, but GPS (a map) and the Faults
// slices inside its receiver configs alias their originals on plain
// struct copy. Parameter sweeps that mutate per-cell configs must go
// through Clone, which deep-copies those; all other fields (including
// the nested Medium/Kernel/COMCO/Sync structs) are safe to mutate on a
// struct copy. The two function fields, OscillatorFor and ClockFactory,
// remain shared by Clone — they must be pure (no captured mutable
// state) to keep cloned configs independent.
type Config struct {
	Nodes int
	Seed  uint64
	// OscillatorFor returns the oscillator config of node i; default
	// TCXO at OscHz.
	OscillatorFor func(i int) oscillator.Config
	// OscHz is the pacing frequency when OscillatorFor is nil (default
	// 10 MHz; the paper's UTCSU accepts 1..20 MHz).
	OscHz  float64
	Medium network.MediumConfig
	Kernel kernel.Config
	COMCO  comco.Config
	Sync   clocksync.Params
	// ClockFactory builds the clock device the synchronizer steers;
	// default wraps the node's UTCSU directly (clocksync.UTCSUClock).
	// Experiment E8 substitutes baseline.CounterClock here.
	ClockFactory func(u *utcsu.UTCSU) clocksync.Clock
	// GPS maps node index → receiver config for GPS-equipped nodes.
	GPS map[int]gps.Config
	// Adversary is the Byzantine attack specification (traitor nodes,
	// wide-area GNSS schedules, multi-source reference counts); the
	// zero value disables it entirely. Per-node roles derive from
	// (Seed, node id), so segmentation never perturbs who lies.
	Adversary adversary.Spec
	// BackgroundLoad injects competing KI/NI-style traffic at this
	// utilization (0..0.9).
	BackgroundLoad float64
	// Segments, when >= 2, makes New build the WANs-of-LANs topology
	// (paper footnote 2) instead of a single LAN: Nodes is then the
	// total regular-node count, split evenly across the segments (it
	// must divide), chained by WAN links. See wan.go and DESIGN.md §8.
	Segments int
	// GatewaysPerLink is the number of redundant gateway nodes on each
	// inter-segment link of a WANs-of-LANs topology; 0 means Sync.F+1
	// (the minimum that survives an f-trimming convergence function).
	GatewaysPerLink int
	// Serving describes the simulated client population querying the
	// cluster for time (internal/service): open-loop arrival streams
	// aggregated per node, feeding served-accuracy sketches. The zero
	// value (Clients == 0) disables serving entirely.
	Serving service.Config
	// Shards is read by nothing.
	//
	// Deprecated: no effect; every topology runs on one simulator. It
	// remains only because the benchmark harness still sets it.
	Shards int
	// Tracer, when non-nil, traces every layer of the cluster: New
	// instruments the simulator with it before building anything on it,
	// and each layer (media, WAN links, node kernels and COMCOs,
	// synchronizers, GPS receivers, serving, adversary) reads it at
	// construction. One Tracer belongs to exactly one cluster — like
	// the simulator, it is single-threaded state.
	Tracer *trace.Tracer
	// Telemetry, when non-nil, is the runtime metrics registry, attached
	// the same way (kernel counters, bus gauges, sync histograms,
	// serving counters). One Registry belongs to exactly one cluster.
	Telemetry *telemetry.Registry
}

// Defaults returns a ready-to-run n-node configuration.
func Defaults(n int, seed uint64) Config {
	return Config{
		Nodes:  n,
		Seed:   seed,
		OscHz:  10e6,
		Medium: network.DefaultLAN(),
		Kernel: kernel.Config{CPU: cpu.DefaultMVME162(), Mode: kernel.ModeNTI, UseRxBaseLatch: true},
		COMCO:  comco.Default82596(),
		// A priori delay bounds for a 10 Mb/s LAN with 64-byte CSPs:
		// serialization ≈ 51 µs + preamble + propagation + DMA terms.
		// MeasureDelay tightens these further.
		Sync: clocksync.Params{
			DelayMin: timefmt.DurationFromSeconds(40e-6),
			DelayMax: timefmt.DurationFromSeconds(120e-6),
			// Tolerate a proportional share of faulty nodes; discarding
			// the extreme intervals also de-noises the midpoint under
			// occasional CSP loss.
			F: fDefault(n),
			// De-burst the per-round broadcasts.
			StaggerSlot: timefmt.DurationFromSeconds(200e-6),
		},
	}
}

// Clone returns a deep copy safe for independent per-cell mutation in
// parameter sweeps: the GPS map and each receiver config's Faults slice
// are copied, so mutating one clone's GPS setup can never leak into
// another cell sharing the same base Config.
func (c Config) Clone() Config {
	out := c // copies every value field, including nested structs
	if c.GPS != nil {
		out.GPS = make(map[int]gps.Config, len(c.GPS))
		for i, rc := range c.GPS {
			rc.Faults = append([]gps.Fault(nil), rc.Faults...)
			out.GPS[i] = rc
		}
	}
	out.Adversary = c.Adversary.Clone()
	return out
}

// fDefault is the default fault-tolerance degree for n nodes.
func fDefault(n int) int {
	f := (n - 1) / 3
	if f > 5 {
		f = 5
	}
	return f
}

// Member is one node of the cluster.
type Member struct {
	Index int
	// Segment is the LAN segment index in a WANs-of-LANs topology
	// (-1 for gateway nodes); 0 for single-LAN clusters.
	Segment int
	// home is the segment whose medium the member's first channel sits
	// on and whose RNG universe its streams derive from: its Segment,
	// or the lower-numbered adjacent segment for a gateway.
	home int
	Osc  *oscillator.Oscillator
	U    *utcsu.UTCSU
	Node *kernel.Node
	Sync *clocksync.Synchronizer
	GPS  *clocksync.GPSAttachment
	Rx   *gps.Receiver
	// SrcGPS/SrcRx are the additional reference sources (GPU 1..) of a
	// multi-source node (Adversary.Sources >= 2); the classic single
	// receiver stays in GPS/Rx.
	SrcGPS []*clocksync.GPSAttachment
	SrcRx  []*gps.Receiver
}

// OffsetAndBounds implements metrics.Snapshotter through an SNU
// snapshot: the clock's offset from simulated true time and the
// real-time edges of its accuracy interval relative to true time.
func (m *Member) OffsetAndBounds() (offset, loEdge, hiEdge float64) {
	snap := m.U.Snapshot()
	offset = snap.Clock.Seconds() - snap.TrueTime
	loEdge = offset - snap.AlphaMinus.Duration().Seconds()
	hiEdge = offset + snap.AlphaPlus.Duration().Seconds()
	return offset, loEdge, hiEdge
}

// Cluster is the assembled system.
type Cluster struct {
	// Sim is the cluster's one simulator: every segment, WAN link and
	// member runs on its event heap.
	Sim *sim.Simulator
	// Group is always nil.
	//
	// Deprecated: every topology runs on Sim. The field remains only
	// because the benchmark harness still reads it.
	Group *group
	// Med is the (first) medium; Media lists all segments in a
	// WANs-of-LANs topology.
	Med     *network.Medium
	Media   []*network.Medium
	Members []*Member
	// ServingGens are the per-node client-load generators (one per
	// regular node, in member order) when cfg.Serving enables a client
	// population; empty otherwise. See serving.go.
	ServingGens []*service.Generator
	// segSims are Sim's handles for each segment's RNG universe (just
	// Sim on a flat LAN): one event heap, private random streams.
	segSims []*sim.Simulator
	adv     *adversary.Layer // nil without an adversary spec
	cfg     Config
}

// group is the type of the deprecated Cluster.Group field.
type group struct{}

// Workers always returns 1.
//
// Deprecated: see Cluster.Group.
func (*group) Workers() int { return 1 }

// Traitor reports whether member index i is an adversarial node
// (always false on clusters without an adversary).
func (c *Cluster) Traitor(i int) bool { return c.adv.Traitor(i) }

// TraitorCount returns the number of adversarial nodes.
func (c *Cluster) TraitorCount() int { return len(c.adv.Traitors()) }

// AdversaryLies returns the total adversarial frame mutations delivered
// so far.
func (c *Cluster) AdversaryLies() uint64 { return c.adv.LiesTold() }

// New builds the cluster on one simulator. Synchronizers are created
// but not started; call Start (optionally after MeasureDelay has
// refined the bounds). A Config with Segments >= 2 builds the
// WANs-of-LANs topology (wan.go); otherwise a single shared LAN.
//
// Every segment draws its random streams from a universe of its own,
// sim.DeriveSeed(Seed, "shard/<i>") (the label is part of the
// determinism contract), so no two segments' media, background load
// or members share a stream; a flat LAN draws from Seed itself.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	segs := max(cfg.Segments, 1)
	if cfg.Nodes%segs != 0 {
		panic(fmt.Sprintf("cluster: %d nodes do not divide evenly over %d segments", cfg.Nodes, segs))
	}
	if cfg.OscHz == 0 {
		cfg.OscHz = 10e6
	}
	s := sim.New(cfg.Seed)
	s.Instrument(cfg.Tracer, cfg.Telemetry)
	c := &Cluster{Sim: s, segSims: []*sim.Simulator{s}, cfg: cfg}
	if segs >= 2 {
		c.segSims = make([]*sim.Simulator, segs)
		for i := range c.segSims {
			c.segSims[i] = s.WithSeed(sim.DeriveSeed(cfg.Seed, fmt.Sprintf("shard/%d", i)))
		}
	}
	for _, ss := range c.segSims {
		c.Media = append(c.Media, network.NewMedium(ss, cfg.Medium))
	}
	c.Med = c.Media[0]
	c.adv = adversary.NewLayer(cfg.Adversary, cfg.Seed, cfg.Nodes)
	for seg := range c.Media {
		for i := 0; i < cfg.Nodes/segs; i++ {
			c.addMember(seg, seg)
		}
	}
	c.linkSegments()
	if cfg.BackgroundLoad > 0 {
		for _, med := range c.Media {
			med.StartBackgroundLoad(cfg.BackgroundLoad, 400)
		}
	}
	c.attachServing()
	return c
}

// addMember builds the next member (index len(c.Members)) in segment
// (-1 for a gateway), homed on segment home: attached to its medium
// and drawing from its RNG universe. The oscillator and GNSS labels
// ("node<index>" on a flat LAN, "wol<index>" across segments) seed the
// node's streams, so they are part of the determinism contract.
func (c *Cluster) addMember(home, segment int) *Member {
	cfg := &c.cfg
	s := c.segSims[home]
	id := len(c.Members)
	label := fmt.Sprintf("node%d", id)
	if len(c.segSims) >= 2 {
		label = fmt.Sprintf("wol%d", id)
	}
	oc := oscillator.TCXO(cfg.OscHz)
	if cfg.OscillatorFor != nil {
		oc = cfg.OscillatorFor(id)
	}
	osc := oscillator.New(s, oc, label)
	u := utcsu.New(s, utcsu.Config{Osc: osc})
	// The adversary sits between the medium and the node's COMCO
	// (identity when nobody attacks): lies are applied per receiver at
	// delivery.
	bus := c.adv.WrapBus(c.Media[home], id, s)
	node := kernel.NewNode(s, uint16(id), u, bus, cfg.Kernel, cfg.COMCO)
	m := &Member{Index: id, Segment: segment, home: home, Osc: osc, U: u, Node: node}
	var clk clocksync.Clock = clocksync.UTCSUClock{UTCSU: u}
	if cfg.ClockFactory != nil {
		clk = cfg.ClockFactory(u)
	}
	m.Sync = clocksync.New(node, clk, cfg.Sync)
	if gc, hasGPS := cfg.GPS[id]; hasGPS {
		attachReferences(s, m, gc, label, cfg)
	}
	c.Members = append(c.Members, m)
	return m
}

// attachReferences wires member m's GNSS reference sources: the
// classic single receiver on GPS stamp unit 0 plus, under multi-source
// trust (Adversary.Sources >= 2), additional independent receivers on
// the UTCSU's spare stamp units. Each source gets the wide-area GNSS
// attack schedule lowered into its fault list (a no-op without one),
// and each extra receiver derives its noise stream from its own label,
// so source streams are mutually independent.
func attachReferences(s *sim.Simulator, m *Member, gc gps.Config, label string, cfg *Config) {
	rho := cfg.Sync.RhoPPB
	if rho == 0 {
		rho = 2000
	}
	acc := timefmt.DurationFromSeconds(gc.AccuracyS)
	if acc == 0 {
		acc = timefmt.DurationFromSeconds(1e-6)
	}
	sources := cfg.Adversary.Sources
	if sources < 1 {
		sources = 1
	}
	if sources > utcsu.NumGPU {
		sources = utcsu.NumGPU
	}
	base := gc
	base.Faults = cfg.Adversary.SourceFaults(0, gc.Faults)
	m.GPS = clocksync.AttachGPS(m.Node, 0, acc, rho)
	m.Rx = gps.New(s, base, m.Index, label, m.GPS.OnPulse)
	m.Sync.AddExternal(m.GPS.Interval)
	for src := 1; src < sources; src++ {
		sc := gc
		sc.Faults = cfg.Adversary.SourceFaults(src, gc.Faults)
		att := clocksync.AttachGPS(m.Node, src, acc, rho)
		rx := gps.New(s, sc, m.Index, fmt.Sprintf("%s/src%d", label, src), att.OnPulse)
		m.Sync.AddExternal(att.Interval)
		m.SrcGPS = append(m.SrcGPS, att)
		m.SrcRx = append(m.SrcRx, rx)
	}
}

// Start launches every synchronizer at the given simulated time.
func (c *Cluster) Start(at float64) {
	c.Sim.At(at, func() {
		for _, m := range c.Members {
			m.Sync.Start()
		}
	})
}

// RunUntil advances the simulation to the horizon and returns the
// reached time.
func (c *Cluster) RunUntil(horizon float64) float64 { return c.Sim.RunUntil(horizon) }

// Now returns the current simulated time.
func (c *Cluster) Now() float64 { return c.Sim.Now() }

// EventCount returns events fired so far.
func (c *Cluster) EventCount() uint64 { return c.Sim.EventCount() }

// Snapshot samples all clocks simultaneously.
func (c *Cluster) Snapshot() metrics.ClusterSample {
	nodes := make([]metrics.Snapshotter, len(c.Members))
	for i, m := range c.Members {
		nodes[i] = m
	}
	return metrics.Sample(c.Now(), nodes)
}

// TelemetrySnapshot captures the cluster's registry into a sim-time
// Snapshot. ok is false when the cluster was built without telemetry.
// Call only between RunUntil calls.
func (c *Cluster) TelemetrySnapshot() (telemetry.Snapshot, bool) {
	if c.cfg.Telemetry == nil {
		return telemetry.Snapshot{}, false
	}
	return telemetry.Capture(c.Now(), c.cfg.Telemetry), true
}

// RunSampled advances the simulation to `until`, sampling the cluster
// every `every` seconds starting at from, and returns the samples.
func (c *Cluster) RunSampled(from, until, every float64) []metrics.ClusterSample {
	var out []metrics.ClusterSample
	for t := from; t <= until; t += every {
		c.RunUntil(t)
		out = append(out, c.Snapshot())
	}
	return out
}

// MeasureDelay runs a round-trip campaign between members a and b and
// returns the bounds (completing the simulation work synchronously).
// Call before Start.
func (c *Cluster) MeasureDelay(a, b, probes int) clocksync.DelayBounds {
	if c.Members[a].home != c.Members[b].home {
		panic("cluster: MeasureDelay probes cannot cross segments (RTT unicast is segment-local)")
	}
	c.Members[b].Node.EnableRTTResponder()
	var res clocksync.DelayBounds
	done := false
	rho := c.cfg.Sync.RhoPPB
	if rho == 0 {
		rho = 2000
	}
	clocksync.MeasureDelay(c.Members[a].Node, c.Members[b].Node, rho, probes, func(b clocksync.DelayBounds) {
		res = b
		done = true
	})
	deadline := c.Now() + 60
	for !done && c.Now() < deadline {
		c.RunUntil(c.Now() + 0.5)
	}
	// Re-install the synchronizers' CI handlers that MeasureDelay
	// displaced on member a.
	c.Members[a].Sync.ReinstallHandler()
	return res
}

// SegmentPrecision computes max|Cp−Cq| over the members of one segment
// (gateways excluded), from a fresh snapshot.
func (c *Cluster) SegmentPrecision(segment int) float64 {
	var lo, hi float64
	first := true
	for _, m := range c.Members {
		if m.Segment != segment {
			continue
		}
		off, _, _ := m.OffsetAndBounds()
		if first {
			lo, hi = off, off
			first = false
			continue
		}
		if off < lo {
			lo = off
		}
		if off > hi {
			hi = off
		}
	}
	if first {
		return 0
	}
	return hi - lo
}
