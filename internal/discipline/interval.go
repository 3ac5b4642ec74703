package discipline

import "ntisim/internal/interval"

// Interval adapts the paper's interval-based convergence functions to
// the Discipline interface: the whole correction is the fused
// interval, no filter state, no rate steering. This is the baseline
// every other discipline is campaigned against.
type Interval struct {
	name string
	fn   func(*interval.Fuser, []interval.Interval, int) (interval.Interval, bool)
	fz   interval.Fuser
}

// NewInterval returns the orthogonal-accuracy baseline discipline
// (interval.Fuser.OrthogonalAccuracy), whose steady-state round is
// allocation-free.
func NewInterval() *Interval {
	return &Interval{name: "interval", fn: (*interval.Fuser).OrthogonalAccuracy}
}

// WrapConverge adapts another Fuser convergence function, given as a
// method expression such as (*interval.Fuser).MarzulloMidpoint (the E14
// ablations), as a Discipline.
func WrapConverge(name string, fn func(*interval.Fuser, []interval.Interval, int) (interval.Interval, bool)) *Interval {
	if name == "" {
		name = "custom"
	}
	return &Interval{name: name, fn: fn}
}

// Name implements Discipline.
func (d *Interval) Name() string { return d.name }

// Step implements Discipline.
func (d *Interval) Step(s Sample) (Action, bool) {
	out, ok := d.fn(&d.fz, s.Intervals, s.F)
	if !ok {
		return Action{}, false
	}
	return Action{Interval: out}, true
}

// Reset implements Discipline (stateless).
func (d *Interval) Reset() {}
