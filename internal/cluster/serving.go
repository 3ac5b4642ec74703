// Serving wiring: attaching the internal/service client population to
// a built cluster. Every regular node (Segment >= 0; gateways carry
// WAN traffic, not client-facing service) gets one aggregate arrival
// generator that reads only its own node's UTCSU.
package cluster

import (
	"fmt"
	"math"

	"ntisim/internal/service"
	"ntisim/internal/sim"
)

// attachServing builds the per-node client-load generators described by
// cfg.Serving. Segment weights follow RegionalSkew (weight of segment s
// ∝ skew^s, normalized), split evenly over the segment's serving
// nodes. Generator RNG streams derive from (Seed, node index) only —
// never from a segment's RNG universe — so a node's arrivals depend
// only on its seed and its rate, never on the topology.
func (c *Cluster) attachServing() {
	sc := c.cfg.Serving
	if sc.Clients <= 0 {
		return
	}
	segs := c.cfg.Segments
	if segs < 1 {
		segs = 1
	}
	skew := sc.RegionalSkew
	if skew <= 0 {
		skew = 1
	}
	perSeg := make([]int, segs)
	for _, m := range c.Members {
		if m.Segment >= 0 {
			perSeg[m.Segment]++
		}
	}
	weights := make([]float64, segs)
	var wsum float64
	for s := range weights {
		if perSeg[s] > 0 {
			weights[s] = math.Pow(skew, float64(s))
		}
		wsum += weights[s]
	}
	qpc := sc.QPSPerClient
	if qpc == 0 {
		qpc = service.DefaultQPSPerClient
	}
	totalQPS := float64(sc.Clients) * qpc
	for _, m := range c.Members {
		if m.Segment < 0 {
			continue
		}
		qps := totalQPS * weights[m.Segment] / wsum / float64(perSeg[m.Segment])
		mem := m
		seed := sim.DeriveSeed(c.cfg.Seed, fmt.Sprintf("service/node/%d", m.Index))
		g := service.New(m.Node.Sim, sc, m.Index, seed, qps, func() float64 {
			off, _, _ := mem.OffsetAndBounds()
			return math.Abs(off)
		})
		c.ServingGens = append(c.ServingGens, g)
	}
}

// StartServing launches every client-load generator at the given
// simulated time (>= the current time). It is a no-op
// when the config carries no client population.
func (c *Cluster) StartServing(at float64) {
	for _, g := range c.ServingGens {
		g.Start(at)
	}
}

// ServingReport merges the per-node generators into population-level
// served-accuracy statistics over a window of windowS sim-seconds.
func (c *Cluster) ServingReport(windowS float64) service.Stats {
	return service.Collect(c.ServingGens, c.cfg.Serving.Clients, windowS)
}
