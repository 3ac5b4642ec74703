// Adaptive grid refinement: instead of sweeping a fixed axis grid,
// bisect one numeric parameter until a target metric crossover (e.g.
// mean precision crossing 1 µs) is bracketed to a requested axis
// tolerance. Every evaluation is a full multi-seed mini-campaign
// through Run, so refinement inherits the pool parallelism and the
// determinism guarantee: bisection decisions depend only on aggregated
// results, never on wall-clock or completion order.

package harness

import "math"

// NumericAxis is a continuously refinable sweep parameter: a point
// factory over a scalar value plus the default search range.
type NumericAxis struct {
	Name   string
	Lo, Hi float64
	// Integer snaps bisection midpoints to whole values (cluster
	// sizes); refinement stops when no untried integer remains between
	// the bracket ends.
	Integer bool
	// Point builds the grid point for one axis value.
	Point func(v float64) Point
}

// StandardNumericAxes maps axis names (as accepted by nticampaign
// -refine) to their refinable form, reusing the sweep-axis
// constructors of grid.go so a refined point is configured exactly
// like its swept counterpart.
func StandardNumericAxes() map[string]NumericAxis {
	return map[string]NumericAxis{
		"load": {Name: "load", Lo: 0, Hi: 0.9,
			Point: func(v float64) Point { return LoadAxis(v).Points[0] }},
		"period": {Name: "period", Lo: 0.25, Hi: 4,
			Point: func(v float64) Point { return PeriodAxis(v).Points[0] }},
		"fosc": {Name: "fosc", Lo: 1e6, Hi: 20e6,
			Point: func(v float64) Point { return FoscAxis(v).Points[0] }},
		"nodes": {Name: "nodes", Lo: 2, Hi: 32, Integer: true,
			Point: func(v float64) Point { return NodesAxis(int(v)).Points[0] }},
	}
}

// Evaluation is one refined axis value: the cells run at that value
// (all seeds) and the aggregated metric the bisection steered by.
type Evaluation struct {
	Value  float64
	Metric float64
	// CILo/CIHi is the bootstrap 95% confidence interval of Metric
	// across seeds. stats.RefineCI steers by it; Refine collapses it to
	// [Metric, Metric].
	CILo, CIHi float64
	Results    []Result
}

// Clears reports whether the evaluation's CI lies entirely on one side
// of target (above = CILo ≥ target, below = CIHi < target). ok is
// false when the CI straddles target — the seed sample cannot resolve
// which side this value is on.
func (e Evaluation) Clears(target float64) (above, ok bool) {
	if e.CILo >= target {
		return true, true
	}
	if e.CIHi < target {
		return false, true
	}
	return false, false
}

// Refinement is the outcome of an adaptive-refinement run.
type Refinement struct {
	Axis   string
	Target float64
	Tol    float64
	// Evals lists every evaluated value in evaluation order (the two
	// range ends first, then midpoints).
	Evals []Evaluation
	// Lo and Hi are the final bracket, Lo.Value < Hi.Value. When
	// Bracketed, their metrics straddle Target and Hi.Value−Lo.Value
	// ≤ Tol (or no untried integer remains for an Integer axis).
	Lo, Hi    Evaluation
	Bracketed bool
	// NoiseLimited is set by Bisect when bisection stopped because an
	// evaluation's bootstrap CI straddled the target: the crossover is
	// bracketed (if Bracketed) but cannot be narrowed further at this
	// seed count — the fix is more seeds, not more midpoints.
	NoiseLimited bool
}

// MeanPrecision is the default refinement metric: the mean across
// non-errored cells of the per-cell mean precision, in seconds.
func MeanPrecision(rs []Result) float64 {
	var sum float64
	n := 0
	for i := range rs {
		if rs[i].Err != "" {
			continue
		}
		sum += rs[i].Precision.Mean
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Refine bisects ax over [ax.Lo, ax.Hi] until metric's crossover of
// target is bracketed to tol (axis units). spec.Points is ignored:
// each evaluation runs the axis point under every spec seed. A nil
// metric means MeanPrecision. Each evaluation's CI collapses to its
// point metric; stats.RefineCI is the variance-aware variant.
func Refine(spec Spec, ax NumericAxis, target, tol float64, metric func([]Result) float64) Refinement {
	if metric == nil {
		metric = MeanPrecision
	}
	return Bisect(ax, target, tol, func(v float64) Evaluation {
		sp := spec
		sp.Points = []Point{ax.Point(v)}
		c := Run(sp)
		m := metric(c.Results)
		return Evaluation{Value: v, Metric: m, CILo: m, CIHi: m, Results: c.Results}
	})
}

// Bisect is the bisection engine behind Refine and stats.RefineCI.
// eval evaluates one axis value. An evaluation only moves a bracket
// end when its whole CI clears the target; when a CI straddles the
// target bisection stops with NoiseLimited set, because another
// midpoint would be steering on noise — the honest next step is more
// seeds, not a narrower bracket. A NaN metric (every cell errored)
// cannot steer either: at a range end it leaves the range unbracketed,
// at a midpoint it stops bisection, neither counting as noise. Bisect
// assumes the metric is monotone over the range (either direction); a
// non-monotone metric still terminates but may bracket an arbitrary
// crossover.
func Bisect(ax NumericAxis, target, tol float64, eval func(v float64) Evaluation) Refinement {
	r := Refinement{Axis: ax.Name, Target: target, Tol: tol}
	lo, hi := eval(ax.Lo), eval(ax.Hi)
	r.Evals = append(r.Evals, lo, hi)
	r.Lo, r.Hi = lo, hi
	if math.IsNaN(lo.Metric) || math.IsNaN(hi.Metric) {
		return r
	}
	loAbove, loOK := lo.Clears(target)
	hiAbove, hiOK := hi.Clears(target)
	if !loOK || !hiOK {
		// A range end already straddles the target: no crossover
		// direction can be established at this seed count.
		r.NoiseLimited = true
		return r
	}
	if loAbove == hiAbove {
		return r // no crossover inside the range
	}
	r.Bracketed = true
	for hi.Value-lo.Value > tol {
		mv := (lo.Value + hi.Value) / 2
		if ax.Integer {
			mv = math.Round(mv)
			if mv == lo.Value || mv == hi.Value {
				break
			}
		}
		m := eval(mv)
		r.Evals = append(r.Evals, m)
		if math.IsNaN(m.Metric) {
			break
		}
		mAbove, mOK := m.Clears(target)
		if !mOK {
			r.NoiseLimited = true
			break
		}
		if mAbove == loAbove {
			lo = m
		} else {
			hi = m
		}
	}
	r.Lo, r.Hi = lo, hi
	return r
}
