package stats

import (
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/harness"
)

// refineSpec is a tiny 2-node campaign for the Run-backed refinement
// tests; each test sets its own seeds and windows.
func refineSpec() harness.Spec {
	return harness.Spec{
		Name:         "test",
		Base:         cluster.Defaults(2, 1),
		Seeds:        []uint64{7, 8},
		WarmupS:      2,
		WindowS:      8,
		SampleEveryS: 1,
		DelayProbes:  4,
		Workers:      4,
	}
}

// TestRefineCIRealCampaignNoiseLimited drives the Run-backed wrapper
// into the NoiseLimited stop with real simulations: the target is
// placed between the two per-seed metric observations at the low range
// end, so its 2-seed bootstrap CI must straddle it and the refinement
// must stop at the ends.
func TestRefineCIRealCampaignNoiseLimited(t *testing.T) {
	spec := refineSpec()
	spec.Points = nil
	spec.Seeds = []uint64{7, 8}
	spec.WarmupS, spec.WindowS = 2, 4

	ax := harness.StandardNumericAxes()["load"]
	ax.Lo, ax.Hi = 0, 0.4

	// Probe the low end to learn its per-seed metrics.
	probe := spec
	probe.Points = []harness.Point{ax.Point(ax.Lo)}
	c := harness.Run(probe)
	perSeed := map[uint64]float64{}
	for _, r := range c.Results {
		if r.Err != "" {
			t.Fatalf("probe cell %s errored: %s", r.Key(), r.Err)
		}
		perSeed[r.Seed] = harness.MeanPrecision([]harness.Result{r})
	}
	a, b := perSeed[7], perSeed[8]
	if a == b {
		t.Skip("per-seed metrics coincide; cannot place a straddling target")
	}
	target := (a + b) / 2

	r := RefineCI(spec, ax, target, 0.05, nil, 500)
	if !r.NoiseLimited {
		t.Fatalf("target %g between per-seed observations %g/%g must be noise-limited: %+v",
			target, a, b, r)
	}
	if r.Bracketed {
		t.Error("straddling range end must not claim a bracket")
	}
	if len(r.Evals) != 2 {
		t.Errorf("evals = %d, want just the 2 ends", len(r.Evals))
	}
	lo := r.Evals[0]
	if above, ok := lo.Clears(target); ok {
		t.Errorf("low end unexpectedly cleared the target (above=%v, CI [%g, %g])",
			above, lo.CILo, lo.CIHi)
	}
}

// TestRefineCIRealCampaign exercises the Run-backed variance-aware
// wrapper: per-seed observations feed a deterministic bootstrap, so
// the CI must contain the point metric and the whole refinement must
// be byte-reproducible across re-runs.
func TestRefineCIRealCampaign(t *testing.T) {
	spec := refineSpec()
	spec.Points = nil
	spec.Seeds = []uint64{7, 8, 9}
	spec.WarmupS, spec.WindowS = 2, 4

	ax := harness.StandardNumericAxes()["load"]
	ax.Lo, ax.Hi = 0, 0.4
	run := func() harness.Refinement {
		// Huge target: only the 2 end evaluations run.
		return RefineCI(spec, ax, 1.0, 0.1, nil, 200)
	}
	a, b := run(), run()
	if len(a.Evals) != 2 {
		t.Fatalf("evals = %d, want 2", len(a.Evals))
	}
	if a.Bracketed || a.NoiseLimited {
		t.Fatalf("target far above range: bracketed=%v noiseLimited=%v", a.Bracketed, a.NoiseLimited)
	}
	for _, e := range a.Evals {
		if len(e.Results) != 3 {
			t.Fatalf("evaluation at %g has %d results, want one per seed", e.Value, len(e.Results))
		}
		if !(e.CILo <= e.Metric && e.Metric <= e.CIHi) {
			t.Errorf("at %g: CI [%g, %g] does not contain metric %g", e.Value, e.CILo, e.CIHi, e.Metric)
		}
		if e.CILo == e.CIHi {
			t.Errorf("at %g: 3-seed bootstrap CI collapsed to a point", e.Value)
		}
	}
	for i := range a.Evals {
		if a.Evals[i].Metric != b.Evals[i].Metric ||
			a.Evals[i].CILo != b.Evals[i].CILo || a.Evals[i].CIHi != b.Evals[i].CIHi {
			t.Errorf("CI refinement not reproducible at eval %d", i)
		}
	}
}
