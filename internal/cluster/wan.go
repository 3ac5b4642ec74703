// WANs-of-LANs: the multi-segment topology of the paper's footnote 2.
//
// LAN segments interact only through gateway frames that cross a WAN
// link of known one-way propagation delay. A gateway node is one NTI
// serving two segments: its first channel attaches to the lower
// adjacent segment's medium directly, its second to a network.LinkPort
// whose far end (a network.Relay) sits on the upper segment's medium.
// A frame leaving either end is scheduled DefaultWANDelayS later on
// the cluster's one simulator, where the other end injects it.
//
// Relayed CSPs get a PTP-transparent-clock-style correction (see
// relayRewrite): without it, the extra link+WAN flight time would
// break the LAN-scale [DelayMin, DelayMax] bounds receivers compensate
// with, and the gateways' intervals would stop containing true time.
package cluster

import (
	"encoding/binary"

	"ntisim/internal/csp"
	"ntisim/internal/interval"
	"ntisim/internal/network"
	"ntisim/internal/timefmt"
)

// DefaultWANDelayS is the one-way WAN propagation delay between
// adjacent segments: 1 ms, a metropolitan-scale link.
const DefaultWANDelayS = 1e-3

// linkSegments chains adjacent segments with GatewaysPerLink gateways
// each (none on a flat LAN). Gateways are members too, numbered after
// every regular node in link order and homed on the link's lower
// segment.
func (c *Cluster) linkSegments() {
	cfg := &c.cfg
	gpl := cfg.GatewaysPerLink
	if gpl <= 0 {
		gpl = cfg.Sync.F + 1
	}
	rw := relayRewrite(cfg.Sync.RhoPPB)
	link := network.LinkConfig{
		BitRateBps:   cfg.Medium.BitRateBps,
		PreambleBits: cfg.Medium.PreambleBits,
		InterframeS:  cfg.Medium.InterframeS,
	}
	s := c.Sim
	for near := 0; near+1 < len(c.Media); near++ {
		for g := 0; g < gpl; g++ {
			gw := c.addMember(near, -1)
			var port *network.LinkPort
			var relay *network.Relay
			port = network.NewLinkPort(c.segSims[near], link, func(f network.Frame) {
				s.At(s.Now()+DefaultWANDelayS, func() { relay.Inject(f) })
			}, rw)
			relay = network.NewRelay(c.Media[near+1], func(f network.Frame) {
				s.At(s.Now()+DefaultWANDelayS, func() { port.Inject(f) })
			}, rw)
			// The gateway's WAN-facing channel gets the same adversary
			// tap as its LAN channel: traitors on the remote segment lie
			// to the gateway too.
			gw.Node.AttachSegment(c.adv.WrapBus(port, gw.Index, c.segSims[near]))
		}
	}
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
