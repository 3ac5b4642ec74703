// Package stats turns multi-seed campaign results into per-point
// statistical estimates. The paper's evaluation claims (≈1 µs
// worst-case precision/accuracy) are statements about distributions
// over runs, not single-run numbers, so every grid point is aggregated
// across its seeds into an Estimate: mean, sample stddev, order
// statistics, a Student-t confidence interval for the mean, and a
// bootstrap percentile interval that needs no normality assumption.
//
// Everything here is deterministic. Bootstrap resampling draws from a
// sim.RNG derived from the group's first cell seed and the point
// label, so a report generated from the same artifacts is
// byte-identical run after run — the property the golden report gate
// in CI relies on.
package stats

import (
	"math"
	"sort"

	"ntisim/internal/harness"
	"ntisim/internal/quantile"
	"ntisim/internal/sim"
)

// Options tunes aggregation.
type Options struct {
	// Bootstrap is the resample count for bootstrap CIs (default 1000;
	// negative disables bootstrap entirely).
	Bootstrap int
	// ConvergedBelowS is the precision threshold (seconds) defining
	// convergence time on timeline-bearing results: the first timeline
	// sample at or below it. Default 5e-6 (5 µs, comfortably inside
	// the paper's pre-convergence transient, above its steady state).
	ConvergedBelowS float64
}

func (o Options) withDefaults() Options {
	if o.Bootstrap == 0 {
		o.Bootstrap = 1000
	}
	if o.ConvergedBelowS == 0 {
		o.ConvergedBelowS = 5e-6
	}
	return o
}

// Estimate summarizes one scalar metric observed once per seed.
//
// Degeneracy is graceful by construction: N = 0 is the zero Estimate;
// N = 1 has Mean = Median = Min = Max = the sample, Stddev 0 and both
// intervals collapsed to [Mean, Mean] (one observation carries no
// dispersion information — the collapsed interval says "no
// uncertainty estimate", not "no uncertainty").
type Estimate struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	// Stddev is the sample standard deviation (n−1 denominator; 0 when
	// N < 2).
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// Lo/Hi is the Student-t 95% confidence interval for the mean.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// BootLo/BootHi is the bootstrap percentile 95% interval of the
	// resampled mean (equal to [Mean, Mean] when N < 2 or bootstrap is
	// disabled).
	BootLo float64 `json:"boot_lo"`
	BootHi float64 `json:"boot_hi"`
	// Values keeps the per-seed observations in seed order, for
	// scatter plots.
	Values []float64 `json:"values,omitempty"`
}

// Describe computes an Estimate from per-seed values. rng drives the
// bootstrap (resamples resamples; both may be zero/nil to skip it);
// pass an RNG derived from the cells' seed so results stay
// deterministic.
func Describe(vals []float64, resamples int, rng *sim.RNG) Estimate {
	e := Estimate{N: len(vals), Values: append([]float64(nil), vals...)}
	if e.N == 0 {
		return e
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	e.Min, e.Max = sorted[0], sorted[len(sorted)-1]
	e.Median = sorted[quantile.Rank(0.5, len(sorted))]

	var sum float64
	for _, v := range vals {
		sum += v
	}
	e.Mean = sum / float64(e.N)
	e.Lo, e.Hi = e.Mean, e.Mean
	e.BootLo, e.BootHi = e.Mean, e.Mean
	if e.N < 2 {
		return e
	}

	var ss float64
	for _, v := range vals {
		d := v - e.Mean
		ss += d * d
	}
	e.Stddev = math.Sqrt(ss / float64(e.N-1))
	half := TCrit95(float64(e.N-1)) * e.Stddev / math.Sqrt(float64(e.N))
	e.Lo, e.Hi = e.Mean-half, e.Mean+half

	if resamples > 0 && rng != nil {
		e.BootLo, e.BootHi = bootstrapCI(vals, resamples, rng)
	}
	return e
}

// bootstrapCI is the percentile bootstrap of the mean: resample n
// values with replacement, take the mean, repeat, and report the
// 2.5%/97.5% order statistics of the resampled means.
func bootstrapCI(vals []float64, resamples int, rng *sim.RNG) (lo, hi float64) {
	means := make([]float64, resamples)
	n := len(vals)
	for b := range means {
		var sum float64
		for i := 0; i < n; i++ {
			sum += vals[rng.Intn(n)]
		}
		means[b] = sum / float64(n)
	}
	sort.Float64s(means)
	return means[quantile.Rank(0.025, resamples)], means[quantile.Rank(0.975, resamples)]
}

// tTable95 holds the two-sided 95% Student-t critical values for
// integer degrees of freedom 1..30.
var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom (fractional df — from Welch–Satterthwaite — is
// linearly interpolated in the table; beyond the table the 1.960+2.4/df
// asymptotic fit is used, accurate to <0.001 at df ≥ 30).
func TCrit95(df float64) float64 {
	if df <= 1 {
		return tTable95[0]
	}
	if df <= float64(len(tTable95)) {
		lo := int(df) // table index of floor(df) is int(df)-1
		frac := df - float64(lo)
		if lo >= len(tTable95) {
			return tTable95[len(tTable95)-1]
		}
		return tTable95[lo-1] + frac*(tTable95[lo]-tTable95[lo-1])
	}
	return 1.960 + 2.4/df
}

// Comparison is the outcome of a Welch two-sample t-test between two
// Estimates' underlying per-seed samples.
type Comparison struct {
	// DeltaMean is a.Mean − b.Mean.
	DeltaMean float64
	// T is the Welch t statistic; DF the Welch–Satterthwaite degrees
	// of freedom; Critical the 95% threshold |T| is judged against.
	T, DF, Critical float64
	// Distinguishable reports |T| > Critical: the means differ at the
	// 95% level. Always false when either side has N < 2 (no
	// dispersion estimate — a single seed cannot be tested).
	Distinguishable bool
}

// Compare runs Welch's t-test on two Estimates at the 95% level.
func Compare(a, b Estimate) Comparison {
	c := Comparison{DeltaMean: a.Mean - b.Mean}
	if a.N < 2 || b.N < 2 {
		return c
	}
	va := a.Stddev * a.Stddev / float64(a.N)
	vb := b.Stddev * b.Stddev / float64(b.N)
	se2 := va + vb
	if se2 == 0 {
		// Zero dispersion on both sides: any mean difference is exact.
		c.Distinguishable = c.DeltaMean != 0
		if c.Distinguishable {
			c.T = math.Inf(1)
			if c.DeltaMean < 0 {
				c.T = math.Inf(-1)
			}
		}
		c.DF = float64(a.N + b.N - 2)
		c.Critical = TCrit95(c.DF)
		return c
	}
	c.T = c.DeltaMean / math.Sqrt(se2)
	c.DF = se2 * se2 / (va*va/float64(a.N-1) + vb*vb/float64(b.N-1))
	c.Critical = TCrit95(c.DF)
	c.Distinguishable = math.Abs(c.T) > c.Critical
	return c
}

// PointStats aggregates one grid point across its seeds.
type PointStats struct {
	Label  string
	Params map[string]string
	// Seeds lists the seeds of the non-errored results that entered
	// the estimates; Errors counts cells that failed.
	Seeds  []uint64
	Errors int

	// Precision estimates the per-seed mean precision; PrecisionWorst
	// the per-seed worst (max) precision; Accuracy the per-seed worst
	// |C−t|; Width the per-seed mean accuracy-interval half-width. All
	// in seconds.
	Precision      Estimate
	PrecisionWorst Estimate
	Accuracy       Estimate
	Width          Estimate
	// Convergence estimates the per-seed convergence time (seconds
	// into the measurement window until precision first reaches
	// Options.ConvergedBelowS). N = 0 unless the campaign kept
	// timelines (Spec.Timeline) and the threshold was reached.
	Convergence Estimate

	// ServedP50/P99/P999 estimate the per-seed served-accuracy
	// percentiles (seconds of client-observed error), ServedMax the
	// per-seed worst served error, and ServedQPS the served requests
	// per sim-second. N = 0 unless the campaign enabled a client
	// population (cluster.Config.Serving).
	ServedP50  Estimate
	ServedP99  Estimate
	ServedP999 Estimate
	ServedMax  Estimate
	ServedQPS  Estimate
}

// HasServing reports whether the point carries served-load estimates.
func (ps *PointStats) HasServing() bool { return ps.ServedP99.N > 0 }

// Aggregate groups results by point (harness.GroupByPoint order, i.e.
// grid order) and estimates each metric across seeds. Errored cells
// are excluded from estimates and counted in Errors.
func Aggregate(results []harness.Result, opt Options) []PointStats {
	opt = opt.withDefaults()
	groups := harness.GroupByPoint(results)
	out := make([]PointStats, 0, len(groups))
	for _, g := range groups {
		ps := PointStats{Label: g.Label, Params: g.Params, Seeds: g.Seeds()}
		var prec, worst, acc, width, conv []float64
		var sp50, sp99, sp999, smax, sqps []float64
		var seed0 uint64
		for _, r := range g.Results {
			if r.Err != "" {
				ps.Errors++
				continue
			}
			if len(prec) == 0 {
				seed0 = r.Seed
			}
			prec = append(prec, r.Precision.Mean)
			worst = append(worst, r.Precision.Max)
			acc = append(acc, r.Accuracy.Max)
			width = append(width, r.Width.Mean)
			if t, ok := ConvergenceTime(r, opt.ConvergedBelowS); ok {
				conv = append(conv, t)
			}
			if sv := r.Serving; sv != nil {
				sp50 = append(sp50, sv.ErrP50S)
				sp99 = append(sp99, sv.ErrP99S)
				sp999 = append(sp999, sv.ErrP999S)
				smax = append(smax, sv.ErrMaxS)
				sqps = append(sqps, sv.QPS)
			}
		}
		// One RNG root per point, derived from the first cell seed and
		// the label, then one stream per metric: reports stay
		// deterministic and adding a metric never perturbs the others.
		root := sim.NewRNG(seed0).Derive("stats/bootstrap/" + g.Label)
		ps.Precision = Describe(prec, opt.Bootstrap, root.Derive("precision"))
		ps.PrecisionWorst = Describe(worst, opt.Bootstrap, root.Derive("precision-worst"))
		ps.Accuracy = Describe(acc, opt.Bootstrap, root.Derive("accuracy"))
		ps.Width = Describe(width, opt.Bootstrap, root.Derive("width"))
		ps.Convergence = Describe(conv, opt.Bootstrap, root.Derive("convergence"))
		ps.ServedP50 = Describe(sp50, opt.Bootstrap, root.Derive("served-p50"))
		ps.ServedP99 = Describe(sp99, opt.Bootstrap, root.Derive("served-p99"))
		ps.ServedP999 = Describe(sp999, opt.Bootstrap, root.Derive("served-p999"))
		ps.ServedMax = Describe(smax, opt.Bootstrap, root.Derive("served-max"))
		ps.ServedQPS = Describe(sqps, opt.Bootstrap, root.Derive("served-qps"))
		out = append(out, ps)
	}
	return out
}

// ConvergenceTime returns the first timeline sample time (seconds from
// window start) at which the cell's precision reached belowS, and
// whether that ever happened. Results without timelines report false.
func ConvergenceTime(r *harness.Result, belowS float64) (float64, bool) {
	for _, p := range r.Timeline {
		if p.PrecisionS <= belowS {
			return p.T, true
		}
	}
	return 0, false
}
