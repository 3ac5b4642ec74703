// Sharded WANs-of-LANs: the multi-segment topology builder.
//
// The footnote-2 topology is embarrassingly decomposable: LAN segments
// interact only through gateway frames that cross a WAN link whose
// propagation delay is known a priori. newSharded exploits that by
// giving every segment its own sim.Simulator (its own event queue,
// RNG universe and tracer) and composing them under a sim.Group whose
// conservative lookahead is exactly the WAN delay — see DESIGN.md §8.
//
// Placement rules:
//
//   - A segment's nodes, medium and background load live on that
//     segment's shard.
//   - A gateway node is one NTI serving two segments, which couples
//     its UTCSU, synchronizer and both COMCOs into one indivisible
//     state machine; it is homed on the lower-numbered adjacent
//     segment's shard. Its first channel attaches to the home medium
//     directly; its second attaches to a network.LinkPort whose far
//     end (a network.Relay) sits on the remote segment's medium, with
//     frames carried across the shard boundary as Group.Post events
//     delayed by the WAN propagation delay.
//
// Relayed CSPs get a PTP-transparent-clock-style correction (see
// relayRewrite): without it, the extra link+WAN flight time would
// break the LAN-scale [DelayMin, DelayMax] bounds receivers compensate
// with, and the gateways' intervals would stop containing true time.
//
// Determinism: member construction order, RNG derivation
// (sim.DeriveSeed(seed, "shard/i")), window boundaries and mailbox
// flush order are all pure functions of the Config. The shards run
// one after another inside each window (sim.Group); the speedup over a
// flat LAN is algorithmic (per-segment event heaps, O(receivers)
// delivery).
package cluster

import (
	"encoding/binary"
	"fmt"

	"ntisim/internal/adversary"
	"ntisim/internal/csp"
	"ntisim/internal/interval"
	"ntisim/internal/network"
	"ntisim/internal/sim"
	"ntisim/internal/telemetry"
	"ntisim/internal/timefmt"
	"ntisim/internal/trace"
)

// DefaultWANDelayS is the one-way WAN propagation delay between
// adjacent segments when Config.WANDelayS is zero: 1 ms, a
// metropolitan-scale link, and a comfortable conservative lookahead
// (hundreds of LAN frames fit in one window).
const DefaultWANDelayS = 1e-3

// newSharded builds the segment-sharded WANs-of-LANs cluster
// (dispatched from New when cfg.Segments >= 2).
func newSharded(cfg Config) *Cluster {
	segs := cfg.Segments
	if cfg.Nodes < segs || cfg.Nodes%segs != 0 {
		panic(fmt.Sprintf("cluster: %d nodes do not divide evenly over %d segments", cfg.Nodes, segs))
	}
	per := cfg.Nodes / segs
	gpl := cfg.GatewaysPerLink
	if gpl <= 0 {
		gpl = cfg.Sync.F + 1
	}
	wan := cfg.WANDelayS
	if wan <= 0 {
		wan = DefaultWANDelayS
	}
	if cfg.OscHz == 0 {
		cfg.OscHz = 10e6
	}

	sims := make([]*sim.Simulator, segs)
	media := make([]*network.Medium, segs)
	for i := range sims {
		sims[i] = sim.New(sim.DeriveSeed(cfg.Seed, fmt.Sprintf("shard/%d", i)))
		// Each shard gets its own tracer and registry, used only by that
		// shard's single-threaded simulator — the trace-ring pattern.
		// Trace and TelemetrySnapshot merge them.
		var tr *trace.Tracer
		if cfg.Tracer != nil {
			tr = trace.New(cfg.Tracer.Options())
			tr.SetShard(i)
		}
		var reg *telemetry.Registry
		if cfg.Telemetry != nil {
			reg = telemetry.New()
			reg.SetShard(i)
		}
		sims[i].Instrument(tr, reg)
		media[i] = network.NewMedium(sims[i], cfg.Medium)
	}
	// Driver-level metrics (windows, flush sizes, imbalance) go on the
	// cluster's own registry — only touched between windows.
	group := sim.NewGroup(wan, sims, cfg.Telemetry)
	c := &Cluster{
		Sim:   sims[0],
		Med:   media[0],
		Media: media,
		Group: group,
		cfg:   cfg,
	}
	c.adv = adversary.NewLayer(cfg.Adversary, cfg.Seed, cfg.Nodes, segs)
	for seg := 0; seg < segs; seg++ {
		for i := 0; i < per; i++ {
			c.addMember(seg, "wol", seg, media[seg])
		}
	}

	rw := relayRewrite(cfg.Sync.RhoPPB)
	link := network.LinkConfig{
		BitRateBps:   cfg.Medium.BitRateBps,
		PreambleBits: cfg.Medium.PreambleBits,
		InterframeS:  cfg.Medium.InterframeS,
	}
	for near := 0; near+1 < segs; near++ {
		far := near + 1
		nearSim, farSim := sims[near], sims[far]
		for g := 0; g < gpl; g++ {
			gw := c.addMember(near, "wol", -1, media[near])
			var port *network.LinkPort
			var relay *network.Relay
			port = network.NewLinkPort(nearSim, link, func(f network.Frame) {
				group.Post(near, far, nearSim.Now()+wan, func() { relay.Inject(f) })
			}, rw)
			relay = network.NewRelay(media[far], func(f network.Frame) {
				group.Post(far, near, farSim.Now()+wan, func() { port.Inject(f) })
			}, rw)
			// The gateway's WAN-facing channel gets the same adversary
			// tap as its LAN channel: traitors on the remote segment lie
			// to the gateway too.
			gw.Node.AttachSegment(c.adv.WrapBus(port, gw.Index, near, nearSim))
		}
	}

	if cfg.BackgroundLoad > 0 {
		for i := range media {
			media[i].StartBackgroundLoad(cfg.BackgroundLoad, 400)
		}
	}
	c.attachServing()
	return c
}

// relayRewrite is the transparent-clock correction applied to relayed
// CSPs at their final acquisition (see network.RewriteFunc): advance
// the embedded transmit stamp by the true time the frame spent beyond
// a direct transmission, and widen its accuracy fields by the drift
// the sender's clock may have accumulated over that span (the rewrite
// adds true elapsed time where a hardware transparent clock would add
// sender-clock elapsed time; the difference is bounded by ρ·elapsed,
// plus one granule of rounding). After the rewrite, the frame's
// timing geometry as seen by every receiver — stamp age vs.
// [DelayMin, DelayMax] — is that of a locally transmitted CSP, and
// interval containment survives the relay.
//
// The stamp words are safe to edit in flight: the CSP header checksum
// deliberately skips the hardware-inserted stamp region
// (csp.headerCheck mixes up to OffTxTrig and from OffEcho), and the
// BTU checksum inside the macrostamp word is recomputed by
// Stamp.Words.
func relayRewrite(rhoPPB int64) network.RewriteFunc {
	if rhoPPB == 0 {
		rhoPPB = 2000
	}
	return func(payload []byte, elapsedS float64) {
		if len(payload) < csp.HeaderSize || csp.Kind(payload[csp.OffKind]) != csp.KindCSP {
			return
		}
		ts := binary.BigEndian.Uint32(payload[csp.OffTxStamp:])
		ms := binary.BigEndian.Uint32(payload[csp.OffTxMacro:])
		st, ok := timefmt.FromWords(ts, ms)
		if !ok {
			return // stamp never inserted (software modes pre-fill; NTI mode always has) or corrupt
		}
		d := timefmt.DurationFromSeconds(elapsedS)
		w1, w2 := st.Add(d).Words()
		binary.BigEndian.PutUint32(payload[csp.OffTxStamp:], w1)
		binary.BigEndian.PutUint32(payload[csp.OffTxMacro:], w2)
		widen := timefmt.AlphaFromDuration(interval.DriftDeterioration(d, rhoPPB) + 1)
		am := timefmt.Alpha(binary.BigEndian.Uint16(payload[csp.OffTxAlpha:]))
		ap := timefmt.Alpha(binary.BigEndian.Uint16(payload[csp.OffTxAlpha+2:]))
		binary.BigEndian.PutUint16(payload[csp.OffTxAlpha:], uint16(am.AddSat(widen)))
		binary.BigEndian.PutUint16(payload[csp.OffTxAlpha+2:], uint16(ap.AddSat(widen)))
	}
}
