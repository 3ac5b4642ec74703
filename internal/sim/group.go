// Conservative windowed composition of Simulators.
//
// A Group runs S independent sub-simulators ("shards") in lock-step
// windows of width equal to the lookahead: within a window every shard
// processes its own events freely, and anything one shard wants to
// happen on another is routed through Post, which requires the target
// time to lie at or beyond the window end. Because cross-shard
// causality in this repository is carried by WAN links whose
// propagation delay is at least the lookahead, a post made at
// simulated time τ inside the window (t, t+W] targets τ+D ≥ t+W, so
// no shard can ever receive an event in its past — the classical
// conservative (Chandy–Misra style) synchronization argument, with
// the barrier playing the role of the null message (see DESIGN.md §8).
//
// The shards run one after another, in index order, on the calling
// goroutine; no goroutine is started. The windows and the canonical
// end-of-window flush still matter, because they fix where cross-shard
// events land in their destination queue: the destination's (at, seq)
// tie-break is a pure function of (lookahead, horizon, posting shard,
// posting order), never of which shard happened to run first.
package sim

import (
	"fmt"
	"sort"

	"ntisim/internal/telemetry"
)

// DeriveSeed maps a scenario seed and a label to the seed of an
// independent deterministic stream, using the same splitmix64 + FNV-64
// construction as RNG.Derive: NewRNG(DeriveSeed(seed, label)) yields
// the stream NewRNG(seed).Derive(label). Shard sub-simulators use it
// so that shard i's RNG universe is a pure function of (seed, i).
func DeriveSeed(seed uint64, label string) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(seed).s[0] ^ h
}

// crossPost is one cross-shard event waiting in a Group outbox for the
// end-of-window flush.
type crossPost struct {
	dst int
	at  float64
	fn  func()
}

// Group composes per-shard Simulators under windowed conservative
// synchronization. The zero value is not usable; call NewGroup. Like a
// Simulator, a Group is single-threaded state.
type Group struct {
	shards    []*Simulator
	lookahead float64

	now    float64
	winEnd float64 // end of the window currently executing (read-only inside it)

	outbox [][]crossPost // one append-only outbox per source shard
	merged []crossPost   // flush scratch, reused across windows

	// Telemetry handles (see NewGroup): window count, flushed cross-shard
	// posts, events per window and the per-window shard imbalance ratio.
	// All updates happen strictly between windows, so they are as
	// deterministic as the window boundaries.
	tmWindows   *telemetry.Counter
	tmPosts     *telemetry.Counter
	tmWinEvents *telemetry.Gauge
	tmImbalance *telemetry.Gauge
	tmPrevFired []uint64 // per-shard fired counts at the last barrier
}

// NewGroup builds a Group over the given shards. lookahead is the
// minimum cross-shard latency in simulated seconds and must be > 0.
//
// reg is the driver-level registry (nil = telemetry off), touched only
// between windows. On it the group registers a window counter, a
// flushed cross-shard post counter, an events-per-window gauge and a
// shard-imbalance gauge (busiest shard's window events over the
// per-shard mean; 1.0 = perfectly balanced, S = one shard did all the
// work). On each shard's own registry it registers capture-time gauges
// of the shard's cumulative fired events and its window lag (how far
// short of the group clock the shard went idle).
//
// Wall-clock shard utilization is deliberately absent: it would differ
// run to run, and snapshots must stay a pure function of sim state. The
// live Monitor owns wall-clock observations.
func NewGroup(lookahead float64, shards []*Simulator, reg *telemetry.Registry) *Group {
	if len(shards) == 0 {
		panic("sim: NewGroup with no shards")
	}
	if !(lookahead > 0) {
		panic(fmt.Sprintf("sim: NewGroup lookahead %v must be > 0", lookahead))
	}
	g := &Group{
		shards:    shards,
		lookahead: lookahead,
		outbox:    make([][]crossPost, len(shards)),
	}
	if reg != nil {
		g.tmWindows = reg.Counter("group.windows")
		g.tmPosts = reg.Counter("group.posts_flushed")
		g.tmWinEvents = reg.Gauge("group.window_events")
		g.tmImbalance = reg.Gauge("group.imbalance")
		g.tmPrevFired = make([]uint64, len(shards))
	}
	for _, s := range shards {
		s.reg.GaugeFunc(telemetry.MetricShardEvents, func() float64 { return float64(s.EventCount()) })
		s.reg.GaugeFunc("group.shard_lag_s", func() float64 { return g.Now() - s.LastFiredAt() })
	}
	return g
}

// Shards returns the number of sub-simulators.
func (g *Group) Shards() int { return len(g.shards) }

// Shard returns sub-simulator i.
func (g *Group) Shard(i int) *Simulator { return g.shards[i] }

// Workers always returns 1: shards run sequentially on the caller.
//
// Deprecated: kept only because the benchmark harness still reads it
// (together with cluster.Config.Shards); both go when it stops.
func (g *Group) Workers() int { return 1 }

// Now returns the group clock: the end of the last completed window.
// Individual shards sit exactly at this time between windows.
func (g *Group) Now() float64 { return g.now }

// Lookahead returns the window width.
func (g *Group) Lookahead() float64 { return g.lookahead }

// EventCount sums fired events across shards.
func (g *Group) EventCount() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.EventCount()
	}
	return n
}

// windowTelemetry records one completed window: total events fired in it
// and how unevenly the shards shared them.
func (g *Group) windowTelemetry() {
	g.tmWindows.Inc()
	var total, max uint64
	for i, s := range g.shards {
		d := s.EventCount() - g.tmPrevFired[i]
		g.tmPrevFired[i] = s.EventCount()
		total += d
		if d > max {
			max = d
		}
	}
	g.tmWinEvents.Set(float64(total))
	if total > 0 {
		mean := float64(total) / float64(len(g.shards))
		g.tmImbalance.Set(float64(max) / mean)
	}
}

// Post schedules fn to run on shard dst at absolute time at. It may be
// called from shard src's event callbacks while a window executes, and
// from the caller between windows. The target time must not precede
// the end of the current window — the conservative-sync contract;
// violating it means the claimed lookahead was wrong, which would
// silently break determinism, so it panics loudly instead.
//
// Posts are buffered per source shard and flushed at the barrier in a
// canonical order (by target time, ties broken by source shard then
// posting order), so the destination shard's (at, seq) tie-break does
// not depend on when, relative to other shards, a post was made.
func (g *Group) Post(src, dst int, at float64, fn func()) {
	if at < g.winEnd {
		panic(fmt.Sprintf("sim: cross-shard post at %v before window end %v (lookahead %v violated)",
			at, g.winEnd, g.lookahead))
	}
	g.outbox[src] = append(g.outbox[src], crossPost{dst: dst, at: at, fn: fn})
}

// flush drains every outbox into the destination shards in canonical
// order. Runs strictly between windows.
func (g *Group) flush() {
	m := g.merged[:0]
	for src := range g.outbox {
		m = append(m, g.outbox[src]...)
		g.outbox[src] = g.outbox[src][:0]
	}
	g.tmPosts.Add(uint64(len(m)))
	if len(m) > 1 {
		// Stable sort on target time: ties keep concatenation order,
		// i.e. (source shard, posting order).
		sort.SliceStable(m, func(i, j int) bool { return m[i].at < m[j].at })
	}
	for i := range m {
		g.shards[m[i].dst].At(m[i].at, m[i].fn)
		m[i].fn = nil
	}
	g.merged = m[:0]
}

// RunUntil advances every shard to horizon in conservative windows of
// width Lookahead, running the shards in index order within each window
// and flushing cross-shard posts at each barrier. A panic in a shard's
// model unwinds straight to the caller. It returns the group clock
// (== horizon when horizon > Now).
func (g *Group) RunUntil(horizon float64) float64 {
	for g.now < horizon {
		end := g.now + g.lookahead
		if end > horizon {
			end = horizon
		}
		g.winEnd = end
		for _, s := range g.shards {
			s.RunUntil(end)
		}
		g.flush()
		g.now = end
		if g.tmWindows != nil {
			g.windowTelemetry()
		}
	}
	return g.now
}
