// Package sim is a deterministic discrete-event simulation kernel.
//
// Events carry a firing time in simulated "true" seconds (float64; see
// DESIGN.md §4 for the precision argument) and fire in time order, with
// insertion order breaking ties so runs are reproducible bit-for-bit.
//
// Scheduling is allocation-free in steady state: Event storage comes
// from a per-simulator free list and is recycled once an event has fired
// or a cancelled event has drained from the queue (see queue.go for the
// pending-event-set layout). A handle therefore identifies one
// scheduling only — once the event has fired, Cancel and Pending on the
// retained handle are no-ops at best and may observe a recycled
// scheduling. Callers that cache handles across firings must clear them
// when the callback runs (every retention site in this repository does;
// Ticker manages its own handle the same way).
package sim

import (
	"fmt"

	"ntisim/internal/telemetry"
	"ntisim/internal/trace"
)

// Event lifecycle states. A pooled Event cycles
// free → pending → (firing|cancelled) → free.
const (
	stateFree uint8 = iota
	statePending
	stateFiring
	stateCancelled
)

// compactFloor is the minimum tombstone count before Cancel considers
// compacting the queue; below it, lazy pop-time skipping is cheaper than
// re-heapifying.
const compactFloor = 64

// Event is a scheduled callback. The Cancel method of the returned handle
// prevents a pending event from firing.
type Event struct {
	fn    func()
	owner *engine
	idx   uint32 // position in owner.events, stable for the Event's lifetime
	state uint8
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The cancelled entry stays in the
// queue as an O(1) tombstone and is recycled when it surfaces at pop
// time (or at the next compaction).
func (e *Event) Cancel() {
	if e == nil || e.state != statePending {
		return
	}
	e.state = stateCancelled
	s := e.owner
	s.tmCancelled.Inc()
	s.tombstones++
	if s.tombstones >= compactFloor && s.tombstones > len(s.queue)/2 {
		s.compact()
	}
}

// Pending reports whether the event is still scheduled.
func (e *Event) Pending() bool { return e != nil && e.state == statePending }

// Simulator is an event heap plus an RNG universe: the heap, clock and
// instruments live in the shared engine, and root seeds the streams of
// the components built on this handle. WithSeed returns another handle
// on the same engine with a different root, which is how the segments
// of a multi-segment cluster keep private random streams on one heap.
// The zero value is not usable; call New.
type Simulator struct {
	*engine
	root *RNG
}

// engine owns the event queue and the current simulated time.
type engine struct {
	now   float64
	seq   uint64
	queue []node
	limit float64 // horizon; 0 = none
	fired uint64

	// events is the arena the queue's pointer-free nodes index into;
	// free lists the recycled entries ready for reuse.
	events     []*Event
	free       []*Event
	tombstones int

	// tr is non-nil only when the tracer asks for dispatch records; the
	// fire loops then emit one KindEventFire record per dispatched
	// event, and otherwise pay a single never-taken branch.
	tr *trace.Tracer

	// Telemetry handles, registered by Instrument. All nil when
	// telemetry is off; their methods are nil-receiver no-ops, so the
	// hot paths pay one predictable branch each — same contract as tr.
	tmScheduled *telemetry.Counter
	tmFired     *telemetry.Counter
	tmCancelled *telemetry.Counter
	tmDepth     *telemetry.Gauge

	// tracer and reg are the domain's instruments (see Instrument);
	// every layer built on this simulator reads them at construction,
	// never on the hot path, so they sit after the hot fields.
	tracer *trace.Tracer
	reg    *telemetry.Registry
}

// New creates a Simulator whose stochastic components derive their RNG
// streams from seed.
func New(seed uint64) *Simulator {
	return &Simulator{engine: &engine{}, root: NewRNG(seed)}
}

// WithSeed returns a handle on the same event heap, clock and
// instruments as s whose components derive their RNG streams from seed
// instead. Events scheduled through either handle share one total
// (at, seq) order; a label drawn through handles of different seeds
// names independent streams.
func (s *Simulator) WithSeed(seed uint64) *Simulator {
	return &Simulator{engine: s.engine, root: NewRNG(seed)}
}

// Now returns the current simulated time in seconds.
func (s *engine) Now() float64 { return s.now }

// RNG derives a named deterministic random stream for one component.
func (s *Simulator) RNG(label string) *RNG { return s.root.Derive(label) }

// EventCount returns the number of events fired so far (for diagnostics).
func (s *engine) EventCount() uint64 { return s.fired }

// Instrument attaches the domain's tracer and telemetry registry (either
// may be nil). It must be called before anything is built on the
// simulator: the medium, node, synchronizer and every other layer read
// their instruments from Tracer and Telemetry in their constructors.
// On r it registers the kernel metrics: events scheduled/fired/cancelled
// counters, the event-queue depth gauge (with high-water mark), and
// snapshot-time pool-occupancy gauges (arena size and free-list length)
// that cost nothing between captures.
func (s *engine) Instrument(tr *trace.Tracer, r *telemetry.Registry) {
	s.tracer, s.reg = tr, r
	if tr.Options().Dispatch {
		s.tr = tr
	}
	if r == nil {
		return
	}
	s.tmScheduled = r.Counter("sim.events_scheduled")
	s.tmFired = r.Counter(telemetry.MetricEventsFired)
	s.tmCancelled = r.Counter("sim.events_cancelled")
	s.tmDepth = r.Gauge(telemetry.MetricQueueDepth)
	r.GaugeFunc("sim.pool_events", func() float64 { return float64(len(s.events)) })
	r.GaugeFunc("sim.pool_free", func() float64 { return float64(len(s.free)) })
}

// Tracer returns the domain's tracer (nil when tracing is off).
func (s *engine) Tracer() *trace.Tracer { return s.tracer }

// Telemetry returns the domain's metrics registry (nil when off).
func (s *engine) Telemetry() *telemetry.Registry { return s.reg }

// alloc takes an Event from the free list, growing the arena only when
// the list is empty (steady state never grows it).
func (s *engine) alloc(fn func()) *Event {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{owner: s, idx: uint32(len(s.events))}
		s.events = append(s.events, e)
	}
	e.fn = fn
	e.state = statePending
	return e
}

// release returns a fired or drained-cancelled Event to the free list.
func (s *engine) release(e *Event) {
	e.fn = nil
	e.state = stateFree
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute time t (which must not be in the
// past) and returns a cancellable handle.
func (s *engine) At(t float64, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, s.now))
	}
	e := s.alloc(fn)
	s.pushNode(node{at: t, seq: s.seq, idx: e.idx})
	s.seq++
	return e
}

// After schedules fn to run d seconds from now.
func (s *engine) After(d float64, fn func()) *Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.At(s.now+d, fn)
}

// rearm re-pushes a currently-firing event at absolute time t, reusing
// its storage. Only legal from within the event's own callback (Ticker
// uses it to reschedule without allocating).
func (s *engine) rearm(e *Event, t float64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, s.now))
	}
	e.state = statePending
	s.pushNode(node{at: t, seq: s.seq, idx: e.idx})
	s.seq++
}

// Every schedules fn every period seconds starting at start, until the
// returned handle is cancelled. fn sees the simulator clock already
// advanced to its firing time.
func (s *engine) Every(start, period float64, fn func()) *Ticker {
	t := &Ticker{sim: s, period: period, fn: fn}
	t.ev = s.At(start, t.fire)
	return t
}

// Ticker is a repeating event created by Every. It owns a single pooled
// Event that is re-pushed in place every period.
type Ticker struct {
	sim    *engine
	period float64
	fn     func()
	ev     *Event
	done   bool
}

func (t *Ticker) fire() {
	if t.done {
		return
	}
	t.fn()
	if t.done { // fn may have stopped us
		t.ev = nil
		return
	}
	t.sim.rearm(t.ev, t.sim.now+t.period)
}

// Stop cancels future firings. Stopping an already-stopped ticker, or
// stopping from within the callback, is safe.
func (t *Ticker) Stop() {
	t.done = true
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

// Run processes events until the queue is empty or the horizon set by
// RunUntil is reached. It returns the time of the last fired event.
func (s *engine) Run() float64 {
	for len(s.queue) > 0 {
		n := s.popNode()
		e := s.events[n.idx]
		if e.state == stateCancelled {
			s.tombstones--
			s.release(e)
			continue
		}
		if s.limit > 0 && n.at > s.limit {
			s.now = s.limit
			s.release(e)
			return s.now
		}
		s.now = n.at
		s.fired++
		s.tmFired.Inc()
		if s.tr != nil {
			s.tr.Emit(trace.KindEventFire, s.now, -1, 0, n.seq, 0, 0)
		}
		e.state = stateFiring
		e.fn()
		if e.state == stateFiring { // not re-armed by its own callback
			s.release(e)
		}
	}
	return s.now
}

// RunUntil processes events with firing times <= horizon, then stops with
// the clock at horizon. Events beyond the horizon remain queued.
func (s *engine) RunUntil(horizon float64) float64 {
	s.limit = horizon
	defer func() { s.limit = 0 }()
	for len(s.queue) > 0 && s.queue[0].at <= horizon {
		n := s.popNode()
		e := s.events[n.idx]
		if e.state == stateCancelled {
			s.tombstones--
			s.release(e)
			continue
		}
		s.now = n.at
		s.fired++
		s.tmFired.Inc()
		if s.tr != nil {
			s.tr.Emit(trace.KindEventFire, s.now, -1, 0, n.seq, 0, 0)
		}
		e.state = stateFiring
		e.fn()
		if e.state == stateFiring {
			s.release(e)
		}
	}
	if s.now < horizon {
		s.now = horizon
	}
	return s.now
}
