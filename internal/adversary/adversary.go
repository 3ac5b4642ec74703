// Package adversary is the Byzantine attacker layer: it wraps existing
// nodes and links with adversarial behavior models so the traitor
// tolerance of the synchronization stack can be measured instead of
// assumed. The NTI paper's interval algorithms tolerate up to f faulty
// *inputs* by construction; this package supplies the faults — in the
// G-SINC spirit of trusting no single node or reference source.
//
// Attack models:
//
//   - Two-faced clocks: a traitor whose CSPs advertise *different*
//     intervals to different receivers (the classic Byzantine clock of
//     Lamport/Melliar-Smith), splitting the honest ensemble into camps
//     pulled in opposite directions.
//   - Colluding liar cliques: traitors steering a common false time —
//     every receiver sees the same consistent lie, so the clique acts
//     as one coordinated voting bloc inside the convergence function.
//   - Delay-asymmetry links: an attacker on the path ages a victim
//     subset's frames beyond the receivers' [DelayMin, DelayMax]
//     compensation bounds — the node is honest, the network lies.
//   - Wide-area GNSS outage/spoofing schedules layered onto the
//     per-node gps fault models: every receiver in the system loses or
//     mis-reports the reference simultaneously, which is what makes
//     multi-source trust (clocksync.Params.SourceF) necessary.
//
// Implementation: lies are applied at frame *delivery*, per receiver,
// by wrapping each member's network.Bus (WrapBus). The mutation edits
// the hardware-stamp region of a copied payload — exactly the region
// the CSP header checksum deliberately skips (csp.headerCheck), so a
// forged stamp is indistinguishable from a hardware-inserted one, just
// as a real two-faced NTI would produce. Receive-side mutation keyed
// on (seed, src, dst) keeps every lie a pure function of the config:
// topology and worker count can never perturb adversarial behavior,
// preserving the campaign byte-identity contract.
package adversary

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ntisim/internal/csp"
	"ntisim/internal/gps"
	"ntisim/internal/network"
	"ntisim/internal/sim"
	"ntisim/internal/telemetry"
	"ntisim/internal/timefmt"
	"ntisim/internal/trace"
)

// Attack model names (Spec.Attack).
const (
	// AttackCollude is the default: all traitors shift their advertised
	// time by +MagnitudeS, forming one consistent lying clique.
	AttackCollude = "collude"
	// AttackTwoFaced shifts by ±MagnitudeS with the sign drawn per
	// (src, dst) pair from DeriveSeed — different receivers see
	// different clocks from the same traitor.
	AttackTwoFaced = "two-faced"
	// AttackDelayAsym ages frames to a seed-chosen victim half of the
	// receivers by MagnitudeS (stamp moved into the past), modelling an
	// on-path delay attacker rather than a lying node.
	AttackDelayAsym = "delay-asym"
	// AttackMixed cycles collude/two-faced/delay-asym over the traitor
	// set in rank order.
	AttackMixed = "mixed"
)

// GNSS event kinds (GNSSEvent.Kind).
const (
	// GNSSOutage suppresses pulses on the affected receivers.
	GNSSOutage = "outage"
	// GNSSSpoof offsets the affected receivers' pulses by OffsetS — a
	// coordinated wide-area spoofing campaign steering a false time.
	GNSSSpoof = "spoof"
)

// GNSSEvent is one wide-area episode of the GNSS attack schedule: it
// applies to *every* GPS-equipped node simultaneously (that is what
// distinguishes it from the per-node gps.Fault models it lowers into).
type GNSSEvent struct {
	// Kind is GNSSOutage or GNSSSpoof.
	Kind string
	// StartS/EndS bound the episode in sim seconds (EndS 0 = open).
	StartS, EndS float64
	// OffsetS is the spoofed time offset (GNSSSpoof only).
	OffsetS float64
	// Sources limits the episode to each node's first Sources reference
	// sources; 0 hits all of them. A spoof that captures only 1 of 3
	// independent sources is what fault-tolerant source combining is
	// designed to survive.
	Sources int
}

// Spec configures the adversarial layer of a cluster. The zero value
// means no adversary at all.
type Spec struct {
	// TraitorFrac is the fraction of regular nodes (gateways excluded)
	// that behave as traitors; the count is round(frac·nodes). Which
	// nodes turn traitor is drawn from DeriveSeed(seed, "adversary/…"),
	// so the cast is a pure function of (seed, nodes).
	TraitorFrac float64
	// Attack selects the traitor behavior model (default AttackCollude).
	Attack string
	// MagnitudeS is the lie magnitude in seconds (default 500e-6 — in
	// the capture band above typical steady-state interval half-widths,
	// where a clique larger than F drags fused intervals off true time
	// instead of merely breaking the intersection).
	MagnitudeS float64
	// StartS delays the node/link attacks until this sim time.
	StartS float64
	// GNSS is the wide-area reference attack schedule.
	GNSS []GNSSEvent
	// Sources is the number of independent GNSS reference sources each
	// GPS-equipped node carries (1..utcsu.NumGPU; 0 = 1, the classic
	// single receiver). Multi-source nodes feed per-source intervals to
	// the synchronizer's fault-tolerant source combining.
	Sources int
}

// Enabled reports whether the spec asks for any adversarial behavior.
func (s *Spec) Enabled() bool {
	return s.TraitorFrac > 0 || len(s.GNSS) > 0 || s.Sources > 1
}

// Clone deep-copies the spec (the GNSS schedule is a slice; campaign
// cells must not share backing arrays — see cluster.Config.Clone).
func (s Spec) Clone() Spec {
	out := s
	out.GNSS = append([]GNSSEvent(nil), s.GNSS...)
	return out
}

// SourceFaults lowers the wide-area GNSS schedule into per-receiver
// gps.Fault episodes for one node's reference source, appended to the
// receiver's own configured faults. source is the node-local reference
// index (0-based).
func (s *Spec) SourceFaults(source int, base []gps.Fault) []gps.Fault {
	if len(s.GNSS) == 0 {
		return base
	}
	// Copy before appending: base may be shared across sources (and, on
	// un-Cloned configs, across cells).
	out := append([]gps.Fault(nil), base...)
	for _, ev := range s.GNSS {
		if ev.Sources > 0 && source >= ev.Sources {
			continue
		}
		switch ev.Kind {
		case GNSSOutage:
			out = append(out, gps.Fault{Kind: gps.FaultOutage, Start: ev.StartS, End: ev.EndS})
		case GNSSSpoof:
			out = append(out, gps.Fault{Kind: gps.FaultOffset, Start: ev.StartS, End: ev.EndS, Magnitude: ev.OffsetS})
		default:
			panic(fmt.Sprintf("adversary: unknown GNSS event kind %q", ev.Kind))
		}
	}
	return out
}

// Layer is the instantiated adversary of one cluster: the traitor cast
// with their attack roles, and the lie count. One Layer belongs to
// exactly one cluster.
type Layer struct {
	spec  Spec
	seed  uint64
	nodes int
	// roles[i] is the attack model of regular node i ("" = honest).
	roles []string
	// traitors lists the traitor node ids in ascending order.
	traitors []int
	mag      timefmt.Duration
	lies     uint64 // delivered lies
}

// NewLayer casts the traitors for a cluster of `nodes` regular nodes
// under the given seed. Returns nil when the spec asks for nothing.
func NewLayer(spec Spec, seed uint64, nodes int) *Layer {
	if !spec.Enabled() {
		return nil
	}
	l := &Layer{
		spec:  spec,
		seed:  seed,
		nodes: nodes,
		roles: make([]string, nodes),
		mag:   timefmt.DurationFromSeconds(spec.MagnitudeS),
	}
	if spec.MagnitudeS == 0 {
		l.mag = timefmt.DurationFromSeconds(500e-6)
	}
	k := int(spec.TraitorFrac*float64(nodes) + 0.5)
	if k > nodes {
		k = nodes
	}
	if k <= 0 {
		return l
	}
	// Rank nodes by a per-node derived hash and turn the k lowest into
	// traitors: an exact count whose membership is a pure function of
	// (seed, node id) — re-segmenting the same node set never changes
	// who lies.
	type ranked struct {
		id   int
		hash uint64
	}
	rk := make([]ranked, nodes)
	for i := range rk {
		rk[i] = ranked{i, sim.DeriveSeed(seed, fmt.Sprintf("adversary/node/%d", i))}
	}
	sort.Slice(rk, func(a, b int) bool {
		if rk[a].hash != rk[b].hash {
			return rk[a].hash < rk[b].hash
		}
		return rk[a].id < rk[b].id
	})
	attack := spec.Attack
	if attack == "" {
		attack = AttackCollude
	}
	mixed := [...]string{AttackCollude, AttackTwoFaced, AttackDelayAsym}
	for r := 0; r < k; r++ {
		role := attack
		if attack == AttackMixed {
			role = mixed[r%len(mixed)]
		}
		switch role {
		case AttackCollude, AttackTwoFaced, AttackDelayAsym:
		default:
			panic(fmt.Sprintf("adversary: unknown attack model %q", role))
		}
		l.roles[rk[r].id] = role
		l.traitors = append(l.traitors, rk[r].id)
	}
	sort.Ints(l.traitors)
	return l
}

// Role returns the attack model of a node id ("" for honest nodes,
// gateways, and out-of-range ids).
func (l *Layer) Role(node int) string {
	if l == nil || node < 0 || node >= len(l.roles) {
		return ""
	}
	return l.roles[node]
}

// Traitor reports whether node id is a traitor.
func (l *Layer) Traitor(node int) bool { return l.Role(node) != "" }

// Traitors lists the traitor node ids in ascending order.
func (l *Layer) Traitors() []int {
	if l == nil {
		return nil
	}
	return l.traitors
}

// LiesTold returns the number of delivered lies.
func (l *Layer) LiesTold() uint64 {
	if l == nil {
		return 0
	}
	return l.lies
}

// pairBit is the deterministic per-(src, dst) coin: which face a
// two-faced traitor shows, or whether a delay attacker targets the
// path. Pure in (seed, src, dst).
func (l *Layer) pairBit(src, dst int) bool {
	return sim.DeriveSeed(l.seed, fmt.Sprintf("adversary/pair/%d/%d", src, dst))&1 == 1
}

// mutate applies the attack of frame f's sender as seen by receiver
// dst: a copied payload with the embedded transmit stamp shifted by the
// returned delta (seconds). ok is false when the frame passes honestly.
func (l *Layer) mutate(payload []byte, dst int, now float64) (out []byte, src int, delta float64, ok bool) {
	if l == nil || len(l.traitors) == 0 || now < l.spec.StartS {
		return nil, 0, 0, false
	}
	if len(payload) < csp.HeaderSize || csp.Kind(payload[csp.OffKind]) != csp.KindCSP {
		return nil, 0, 0, false
	}
	src = int(binary.BigEndian.Uint16(payload[csp.OffNode:]))
	role := l.Role(src)
	if role == "" {
		return nil, 0, 0, false
	}
	d := l.mag
	switch role {
	case AttackCollude:
		// Common false time: every receiver sees +mag.
	case AttackTwoFaced:
		if l.pairBit(src, dst) {
			d = -d
		}
	case AttackDelayAsym:
		if !l.pairBit(src, dst) {
			return nil, 0, 0, false // this path is clean
		}
		d = -d // aged in flight: the stamp claims an older transmission
	}
	st, okSt := timefmt.FromWords(
		binary.BigEndian.Uint32(payload[csp.OffTxStamp:]),
		binary.BigEndian.Uint32(payload[csp.OffTxMacro:]))
	if !okSt {
		return nil, 0, 0, false // stamp never inserted or corrupt
	}
	// The medium shares one payload slice across a broadcast's
	// deliveries; the per-receiver lie must copy before editing. Only
	// the checksum-exempt hardware stamp region changes (the same
	// region cluster.relayRewrite edits), so the forged frame still
	// decodes as genuine.
	out = append([]byte(nil), payload...)
	w1, w2 := st.Add(d).Words()
	binary.BigEndian.PutUint32(out[csp.OffTxStamp:], w1)
	binary.BigEndian.PutUint32(out[csp.OffTxMacro:], w2)
	return out, src, d.Seconds(), true
}

// WrapBus interposes the adversary between a member's network bus and
// its COMCO: frames from traitorous senders are mutated per receiver at
// delivery. dst is the receiving node's id and s the simulator whose
// tracer and registry record the lies. Returns the bus unchanged when
// no node attacks.
func (l *Layer) WrapBus(bus network.Bus, dst int, s *sim.Simulator) network.Bus {
	if l == nil || len(l.traitors) == 0 {
		return bus
	}
	return &wrappedBus{
		inner: bus, l: l, dst: dst, s: s,
		tr: s.Tracer(), lies: s.Telemetry().Counter(MetricLiesTold),
	}
}

// MetricLiesTold is the telemetry counter of delivered adversarial
// mutations (registered only on clusters with traitors, so
// adversary-free snapshot streams carry no adversary metric).
const MetricLiesTold = "adv.lies_told"

// wrappedBus delegates Send/Bitrate and interposes on Attach, so every
// station the COMCO registers sees mutated deliveries.
type wrappedBus struct {
	inner network.Bus
	l     *Layer
	dst   int
	s     *sim.Simulator
	tr    *trace.Tracer
	lies  *telemetry.Counter
}

func (b *wrappedBus) Attach(st network.Station) int {
	return b.inner.Attach(&interceptor{b: b, st: st})
}

func (b *wrappedBus) Send(f network.Frame, onAcquired func(at float64)) uint64 {
	return b.inner.Send(f, onAcquired)
}

func (b *wrappedBus) Bitrate() float64 { return b.inner.Bitrate() }

// interceptor is the per-station delivery tap.
type interceptor struct {
	b  *wrappedBus
	st network.Station
}

func (ic *interceptor) FrameArrived(f network.Frame) {
	b := ic.b
	if out, src, delta, ok := b.l.mutate(f.Payload, b.dst, b.s.Now()); ok {
		f.Payload = out
		b.l.lies++
		b.lies.Inc()
		if b.tr != nil {
			b.tr.Emit(trace.KindLie, b.s.Now(), b.dst, 0, f.ID, uint64(src), delta)
		}
	}
	ic.st.FrameArrived(f)
}
