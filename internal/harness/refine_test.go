package harness

import (
	"math"
	"testing"
)

// syntheticAxis drives Bisect with a closed-form metric so the
// bisection contract can be checked without running simulations.
func syntheticAxis(lo, hi float64, integer bool) NumericAxis {
	return NumericAxis{Name: "synthetic", Lo: lo, Hi: hi, Integer: integer}
}

// point is an evaluation whose CI collapses to its metric, as Refine
// feeds Bisect.
func point(v, m float64) Evaluation {
	return Evaluation{Value: v, Metric: m, CILo: m, CIHi: m}
}

// TestRefineBracketsMonotoneCrossover: for a strictly monotone metric
// the loop must bracket the exact crossover within the requested axis
// tolerance, with metrics straddling the target.
func TestRefineBracketsMonotoneCrossover(t *testing.T) {
	// metric(v) = 0.5e-6 + 2e-6·v: crosses 1.5e-6 exactly at v = 0.5.
	metric := func(v float64) float64 { return 0.5e-6 + 2e-6*v }
	evals := 0
	eval := func(v float64) Evaluation {
		evals++
		return point(v, metric(v))
	}
	const target, tol, crossing = 1.5e-6, 1e-3, 0.5
	r := Bisect(syntheticAxis(0, 0.9, false), target, tol, eval)
	if !r.Bracketed {
		t.Fatalf("crossover not bracketed: %+v", r)
	}
	if r.Hi.Value-r.Lo.Value > tol {
		t.Errorf("bracket width %g > tol %g", r.Hi.Value-r.Lo.Value, tol)
	}
	if r.Lo.Value > crossing || r.Hi.Value < crossing {
		t.Errorf("bracket [%g, %g] excludes the true crossing %g", r.Lo.Value, r.Hi.Value, crossing)
	}
	if (r.Lo.Metric >= target) == (r.Hi.Metric >= target) {
		t.Errorf("bracket metrics %g/%g do not straddle target %g", r.Lo.Metric, r.Hi.Metric, target)
	}
	if len(r.Evals) != evals {
		t.Errorf("recorded %d evals, performed %d", len(r.Evals), evals)
	}
	// Bisection cost: 2 ends + ~log2(range/tol) midpoints.
	if max := 2 + int(math.Ceil(math.Log2(0.9/tol))) + 1; evals > max {
		t.Errorf("evals = %d, want <= %d", evals, max)
	}
}

// A decreasing metric must bracket just as well (sign-based bisection).
func TestRefineDecreasingMetric(t *testing.T) {
	eval := func(v float64) Evaluation {
		return point(v, 10-v) // crosses 4 at v = 6
	}
	r := Bisect(syntheticAxis(0, 32, false), 4, 0.125, eval)
	if !r.Bracketed || r.Lo.Value > 6 || r.Hi.Value < 6 {
		t.Fatalf("decreasing metric not bracketed around 6: %+v", r)
	}
	if r.Hi.Value-r.Lo.Value > 0.125 {
		t.Errorf("bracket width %g > tol", r.Hi.Value-r.Lo.Value)
	}
}

// TestRefineNoCrossover: when the target lies outside the metric range
// the loop reports the unbracketed ends instead of looping.
func TestRefineNoCrossover(t *testing.T) {
	eval := func(v float64) Evaluation { return point(v, v) }
	r := Bisect(syntheticAxis(0, 1, false), 5, 0.01, eval)
	if r.Bracketed {
		t.Fatal("target outside range must not bracket")
	}
	if len(r.Evals) != 2 {
		t.Errorf("no-crossover run evaluated %d points, want just the 2 ends", len(r.Evals))
	}
}

// TestRefineIntegerAxis: integer axes snap midpoints and stop when the
// bracket closes to adjacent integers, even with a tiny tolerance.
func TestRefineIntegerAxis(t *testing.T) {
	var seen []float64
	eval := func(v float64) Evaluation {
		seen = append(seen, v)
		return point(v, v*v) // crosses 40 between 6 and 7
	}
	r := Bisect(syntheticAxis(2, 32, true), 40, 1e-9, eval)
	if !r.Bracketed {
		t.Fatal("integer crossover not bracketed")
	}
	if r.Lo.Value != 6 || r.Hi.Value != 7 {
		t.Errorf("bracket = [%g, %g], want [6, 7]", r.Lo.Value, r.Hi.Value)
	}
	for _, v := range seen {
		if v != math.Trunc(v) {
			t.Errorf("non-integer evaluation %g on integer axis", v)
		}
	}
}

// TestRefineCITightIntervalsBisectNormally: when every CI clears the
// target (near-zero seed noise), the variance-aware loop behaves
// exactly like plain bisection — bracketed to tolerance, not
// noise-limited.
func TestRefineCITightIntervalsBisectNormally(t *testing.T) {
	eval := func(v float64) Evaluation {
		m := 0.5e-6 + 2e-6*v // crosses 1.5e-6 at v = 0.5
		return Evaluation{Value: v, Metric: m, CILo: m - 1e-12, CIHi: m + 1e-12}
	}
	r := Bisect(syntheticAxis(0, 0.9, false), 1.5e-6, 1e-3, eval)
	if !r.Bracketed || r.NoiseLimited {
		t.Fatalf("tight-CI run: bracketed=%v noiseLimited=%v", r.Bracketed, r.NoiseLimited)
	}
	if r.Hi.Value-r.Lo.Value > 1e-3 {
		t.Errorf("bracket width %g > tol", r.Hi.Value-r.Lo.Value)
	}
	if r.Lo.Value > 0.5 || r.Hi.Value < 0.5 {
		t.Errorf("bracket [%g, %g] excludes the true crossing 0.5", r.Lo.Value, r.Hi.Value)
	}
}

// TestRefineCIStopsWhenNoiseLimited: a CI that straddles the target at
// the first midpoint must stop the bisection immediately — the bracket
// stays valid (the ends cleared) but refining further would steer on
// noise.
func TestRefineCIStopsWhenNoiseLimited(t *testing.T) {
	const halfWidth = 0.2
	eval := func(v float64) Evaluation {
		return Evaluation{Value: v, Metric: v, CILo: v - halfWidth, CIHi: v + halfWidth}
	}
	// Ends: 0±0.2 < 0.5 and 1±0.2 > 0.5 both clear; midpoint 0.5±0.2
	// straddles.
	r := Bisect(syntheticAxis(0, 1, false), 0.5, 1e-3, eval)
	if !r.Bracketed {
		t.Fatal("ends cleared on opposite sides: crossover should be bracketed")
	}
	if !r.NoiseLimited {
		t.Fatal("straddling midpoint CI must set NoiseLimited")
	}
	if len(r.Evals) != 3 {
		t.Errorf("evals = %d, want 3 (2 ends + the straddling midpoint)", len(r.Evals))
	}
	if r.Lo.Value != 0 || r.Hi.Value != 1 {
		t.Errorf("bracket = [%g, %g], want the untightened [0, 1]", r.Lo.Value, r.Hi.Value)
	}
}

// TestRefineCIEndStraddles: when a range end's own CI straddles the
// target, no crossover direction exists — the run reports the ends,
// unbracketed and noise-limited, without burning midpoint campaigns.
func TestRefineCIEndStraddles(t *testing.T) {
	eval := func(v float64) Evaluation {
		return Evaluation{Value: v, Metric: v, CILo: v - 0.3, CIHi: v + 0.3}
	}
	r := Bisect(syntheticAxis(0, 1, false), 0.2, 1e-3, eval) // lo end 0±0.3 straddles 0.2
	if r.Bracketed {
		t.Fatal("straddling end must not claim a bracket")
	}
	if !r.NoiseLimited {
		t.Fatal("straddling end must set NoiseLimited")
	}
	if len(r.Evals) != 2 {
		t.Errorf("evals = %d, want just the 2 ends", len(r.Evals))
	}
}

// TestRefineCIPartialTightenThenNoiseLimited: the bisection may move a
// bracket end on clean midpoints before hitting a straddling one. The
// run must keep the partially tightened bracket, stay Bracketed, and
// set NoiseLimited.
func TestRefineCIPartialTightenThenNoiseLimited(t *testing.T) {
	// metric(v) = v, target 0.3. CIs are tight except within 0.2 of the
	// crossover. Midpoint order: 0.5 (clears above → hi), then 0.25
	// (straddles → stop).
	eval := func(v float64) Evaluation {
		hw := 0.01
		if math.Abs(v-0.3) < 0.2 {
			hw = 0.2
		}
		return Evaluation{Value: v, Metric: v, CILo: v - hw, CIHi: v + hw}
	}
	r := Bisect(syntheticAxis(0, 1, false), 0.3, 1e-3, eval)
	if !r.Bracketed || !r.NoiseLimited {
		t.Fatalf("partial tighten: bracketed=%v noiseLimited=%v", r.Bracketed, r.NoiseLimited)
	}
	if r.Lo.Value != 0 || r.Hi.Value != 0.5 {
		t.Errorf("bracket = [%g, %g], want the partially tightened [0, 0.5]",
			r.Lo.Value, r.Hi.Value)
	}
	if len(r.Evals) != 4 {
		t.Errorf("evals = %d, want 4 (2 ends, 1 clean midpoint, 1 straddle)", len(r.Evals))
	}
}

// TestRefineRealCampaign exercises the Run-backed wrapper end to end on
// a tiny spec: evaluations must carry one result per seed and be
// reproducible (the refinement is re-run and compared).
func TestRefineRealCampaign(t *testing.T) {
	spec := testSpec(4)
	spec.Points = nil
	spec.Seeds = []uint64{7, 8}
	spec.WarmupS, spec.WindowS = 2, 4

	ax := StandardNumericAxes()["load"]
	ax.Lo, ax.Hi = 0, 0.4
	run := func() Refinement {
		// Huge target: no crossover expected — only the 2 end evaluations
		// run, keeping the test cheap while covering the Run wiring.
		return Refine(spec, ax, 1.0, 0.1, nil)
	}
	a, b := run(), run()
	if len(a.Evals) != 2 {
		t.Fatalf("evals = %d, want 2", len(a.Evals))
	}
	for _, e := range a.Evals {
		if len(e.Results) != 2 {
			t.Fatalf("evaluation at %g has %d results, want one per seed", e.Value, len(e.Results))
		}
		if math.IsNaN(e.Metric) || e.Metric <= 0 {
			t.Errorf("implausible metric %g at %g", e.Metric, e.Value)
		}
	}
	for i := range a.Evals {
		if a.Evals[i].Metric != b.Evals[i].Metric || a.Evals[i].Value != b.Evals[i].Value {
			t.Errorf("refinement not reproducible at eval %d: %+v vs %+v", i, a.Evals[i], b.Evals[i])
		}
	}
}

// TestBisectNaNIsNotNoise: a NaN metric (every cell errored) cannot
// steer. At a range end it leaves the range unbracketed; at a midpoint
// it stops bisection on the bracket so far. Neither is noise.
func TestBisectNaNIsNotNoise(t *testing.T) {
	nanAt := func(bad float64) func(v float64) Evaluation {
		return func(v float64) Evaluation {
			if v == bad {
				return point(v, math.NaN())
			}
			return point(v, v)
		}
	}
	r := Bisect(syntheticAxis(0, 1, false), 0.3, 1e-3, nanAt(1))
	if r.Bracketed || r.NoiseLimited || len(r.Evals) != 2 {
		t.Errorf("NaN end: bracketed=%v noiseLimited=%v evals=%d, want unbracketed, not noise, 2 evals",
			r.Bracketed, r.NoiseLimited, len(r.Evals))
	}
	r = Bisect(syntheticAxis(0, 1, false), 0.3, 1e-3, nanAt(0.5))
	if !r.Bracketed || r.NoiseLimited || len(r.Evals) != 3 || r.Lo.Value != 0 || r.Hi.Value != 1 {
		t.Errorf("NaN midpoint: bracketed=%v noiseLimited=%v evals=%d bracket [%g, %g], want the ends bracketed after 3 evals, not noise",
			r.Bracketed, r.NoiseLimited, len(r.Evals), r.Lo.Value, r.Hi.Value)
	}
}
