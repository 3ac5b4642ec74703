package stats

import (
	"fmt"
	"math"

	"ntisim/internal/harness"
	"ntisim/internal/sim"
)

// DefaultResamples is RefineCI's bootstrap resample count when the
// caller passes 0.
const DefaultResamples = 1000

// RefineCI is the variance-aware harness.Refine: bisection decisions
// use the bootstrap 95% confidence interval of the metric across seeds
// rather than its point estimate (see harness.Bisect for how a
// straddling CI stops the run as NoiseLimited). With a single seed the
// CI collapses to the mean and RefineCI degenerates to Refine. A nil
// metric means harness.MeanPrecision.
//
// The bootstrap RNG is derived from Base.Seed, the axis name and the
// axis value, never from wall clock, so refinement reports stay
// byte-deterministic.
func RefineCI(spec harness.Spec, ax harness.NumericAxis, target, tol float64, metric func([]harness.Result) float64, resamples int) harness.Refinement {
	if metric == nil {
		metric = harness.MeanPrecision
	}
	if resamples <= 0 {
		resamples = DefaultResamples
	}
	return harness.Bisect(ax, target, tol, func(v float64) harness.Evaluation {
		sp := spec
		sp.Points = []harness.Point{ax.Point(v)}
		c := harness.Run(sp)
		e := harness.Evaluation{Value: v, Metric: metric(c.Results), Results: c.Results}
		rng := sim.NewRNG(sim.DeriveSeed(sp.Base.Seed,
			fmt.Sprintf("refine-ci/%s/%x", ax.Name, math.Float64bits(v))))
		e.CILo, e.CIHi = metricCI(c.Results, metric, resamples, rng)
		return e
	})
}

// metricCI bootstraps the 95% CI of the metric over per-seed
// observations: each seed's cells form one observation (metric applied
// to that seed's result slice), resampled with replacement. NaN when no
// seed yields a metric.
func metricCI(rs []harness.Result, metric func([]harness.Result) float64, resamples int, rng *sim.RNG) (lo, hi float64) {
	// Group results by seed, preserving first-seen (seed-major grid)
	// order so the observation vector is deterministic.
	var seeds []uint64
	bySeed := map[uint64][]harness.Result{}
	for _, r := range rs {
		if _, seen := bySeed[r.Seed]; !seen {
			seeds = append(seeds, r.Seed)
		}
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	obs := make([]float64, 0, len(seeds))
	for _, s := range seeds {
		if v := metric(bySeed[s]); !math.IsNaN(v) {
			obs = append(obs, v)
		}
	}
	switch len(obs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return obs[0], obs[0]
	}
	return bootstrapCI(obs, resamples, rng)
}
