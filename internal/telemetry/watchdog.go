package telemetry

import "sort"

// Metric names the watchdog rules key on. Layers register these exact
// names; the watchdog only sees merged snapshots, so it is decoupled from
// the instrumented packages.
const (
	// MetricContainment counts reference-interval containment violations
	// observed by the harness sample loop.
	MetricContainment = "sync.containment_violations"
	// MetricConvergenceFailed counts clocksync rounds whose interval
	// fusion failed to produce a valid result.
	MetricConvergenceFailed = "sync.convergence_failed"
	// MetricQueueDepth is the event-queue depth gauge.
	MetricQueueDepth = "sim.queue_depth"
	// MetricEventsFired is the fired-event counter.
	MetricEventsFired = "sim.events_fired"
	// MetricHonestContainment counts containment violations on honest
	// (non-traitor) nodes only, maintained by the harness sample loop on
	// adversarial cells. A traitor steering its own clock off true time
	// is working as configured; an *honest* node losing containment
	// means the Byzantine tolerance bound was actually exceeded.
	MetricHonestContainment = "sync.honest_containment_violations"
)

// WatchdogConfig sets the health-rule thresholds. The zero value gets
// sane defaults from NewWatchdog.
type WatchdogConfig struct {
	// QueueDepthLimit flags "queue-depth-runaway" when any event-queue
	// depth high-water exceeds it. Default 1<<20.
	QueueDepthLimit float64 `json:"queue_depth_limit,omitempty"`
	// ContainmentLimit flags "containment-violation" when the violation
	// counter exceeds it. Default 0 (any violation flags).
	ContainmentLimit uint64 `json:"containment_limit,omitempty"`
	// ConvergenceFailLimit flags "convergence-failures" when the failed
	// round counter exceeds it. Default 0.
	ConvergenceFailLimit uint64 `json:"convergence_fail_limit,omitempty"`
	// PrecisionDriftWindow enables the trend rule: precision getting
	// strictly worse for this many consecutive ObservePrecision calls
	// latches "precision-drift". 0 (the default) disables the rule, so
	// cells that never opt in keep their exact legacy flag sets.
	PrecisionDriftWindow int `json:"precision_drift_window,omitempty"`
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.QueueDepthLimit == 0 {
		c.QueueDepthLimit = 1 << 20
	}
	return c
}

// Watchdog evaluates health rules over the snapshot sequence of one cell.
// Rules are pure functions of snapshot contents (sim-domain), so the flags
// a cell earns are as deterministic as the snapshots themselves. Flags
// latch: once raised they stay raised for the cell.
type Watchdog struct {
	cfg   WatchdogConfig
	flags map[string]bool
	// Precision-trend state (PrecisionDriftWindow > 0): the previous
	// observation and the current strictly-worsening streak length.
	prevPrecision float64
	driftStreak   int
	precisionSeen bool
}

// NewWatchdog returns a watchdog with defaults applied to cfg.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	return &Watchdog{
		cfg:   cfg.withDefaults(),
		flags: map[string]bool{},
	}
}

// Observe evaluates every rule against one snapshot. No-op on nil.
func (w *Watchdog) Observe(s Snapshot) {
	if w == nil {
		return
	}
	if s.Counters[MetricContainment] > w.cfg.ContainmentLimit {
		w.flags["containment-violation"] = true
	}
	if s.Counters[MetricConvergenceFailed] > w.cfg.ConvergenceFailLimit {
		w.flags["convergence-failures"] = true
	}
	if s.Counters[MetricHonestContainment] > 0 {
		// Safe unconditionally: the metric only exists in snapshots of
		// adversarial cells (registered there by the harness).
		w.flags["honest-containment"] = true
	}
	if s.Gauges[MetricQueueDepth].Hi > w.cfg.QueueDepthLimit {
		w.flags["queue-depth-runaway"] = true
	}
}

// ObservePrecision feeds the trend rule one per-snapshot precision
// sample (seconds; smaller is better). A run of cfg.PrecisionDriftWindow
// consecutive strictly-worsening samples latches "precision-drift" —
// the "drifting monotonically worse" failure mode absolute limits can't
// see until it is far gone. No-op on nil or when the rule is disabled.
func (w *Watchdog) ObservePrecision(p float64) {
	if w == nil || w.cfg.PrecisionDriftWindow <= 0 {
		return
	}
	if w.precisionSeen && p > w.prevPrecision {
		w.driftStreak++
		if w.driftStreak >= w.cfg.PrecisionDriftWindow {
			w.flags["precision-drift"] = true
		}
	} else {
		w.driftStreak = 0
	}
	w.prevPrecision = p
	w.precisionSeen = true
}

// Flags returns the latched health flags, sorted. Nil (not empty) when
// healthy, so a Result's omitempty health field stays absent.
func (w *Watchdog) Flags() []string {
	if w == nil || len(w.flags) == 0 {
		return nil
	}
	fs := make([]string, 0, len(w.flags))
	for f := range w.flags {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	return fs
}
