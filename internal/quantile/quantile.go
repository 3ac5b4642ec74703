// Package quantile holds the repository's one quantile convention and
// its one streaming quantile sketch: Rank, the nearest-rank index every
// exact percentile uses, and Sketch, the log-binned summary behind the
// served-error percentiles and the telemetry histograms. It is a
// stdlib-only leaf, so any layer can import it.
package quantile

import "math"

// Rank maps quantile p to an index into n sorted values by nearest
// rank: round(p·(n−1)), clamped to [0, n). p outside [0, 1] clamps to
// the extreme samples; n <= 0 returns 0.
func Rank(p float64, n int) int {
	i := int(p*float64(n-1) + 0.5)
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// The sketch covers magnitudes from 1e-9 up to 1e9 (seconds for served
// errors, widths and corrections; plain counts for per-tick arrival
// batches) with a relative accuracy of ±(gamma−1)/2 ≈ ±1% per bin.
// Everything below minV, negatives included, collapses into a
// near-zero bin and everything from maxV up into an overflow bin; the
// exact observed min/max clamp reported quantiles so saturation never
// invents values outside the sample range.
const (
	minV  = 1e-9
	maxV  = 1e9
	gamma = 1.02
)

// invLogGamma, preBins and maxBins are fixed by the constants. preBins
// covers [minV, 10): a new sketch allocates those bins up front, so
// recording a time in seconds never allocates. Larger values (arrival
// counts) grow the bins on first use, up to maxBins.
var (
	invLogGamma = 1 / math.Log(gamma)
	preBins     = int(math.Ceil(math.Log(10/minV)*invLogGamma)) + 1
	maxBins     = int(math.Ceil(math.Log(maxV/minV)*invLogGamma)) + 1
)

// Sketch is a log-binned streaming quantile sketch. Counts, min, max
// and every bin of a merged sketch equal those of one sketch fed the
// union of both streams, in any merge order; the sum (and so the mean)
// is a float accumulation whose last bits depend on that order. Every
// method is a no-op (or returns 0) on a nil *Sketch, so disabled
// instrumentation holds a nil handle for free. Not thread-safe.
type Sketch struct {
	bins    []uint64
	zero    uint64 // samples below minV
	over    uint64 // samples at or above maxV
	count   uint64
	sum     float64
	minSeen float64
	maxSeen float64
}

// New returns an empty sketch with the bins below 10 preallocated.
func New() *Sketch {
	return &Sketch{bins: make([]uint64, preBins)}
}

// Add records one sample of value v.
func (s *Sketch) Add(v float64) { s.AddN(v, 1) }

// AddN records n samples of value v. A batch of identical values is how
// the tick-aggregated service generator feeds its sketch: every query
// served within one tick observes the same node error, so one AddN
// covers the whole batch without per-query work.
func (s *Sketch) AddN(v float64, n uint64) {
	if s == nil || n == 0 {
		return
	}
	if s.count == 0 || v < s.minSeen {
		s.minSeen = v
	}
	if s.count == 0 || v > s.maxSeen {
		s.maxSeen = v
	}
	s.count += n
	s.sum += v * float64(n)
	if v < minV {
		s.zero += n
		return
	}
	if v >= maxV {
		s.over += n
		return
	}
	i := min(int(math.Log(v/minV)*invLogGamma), maxBins-1)
	s.grow(i + 1)
	s.bins[i] += n
}

// grow extends the bins to at least n.
func (s *Sketch) grow(n int) {
	if n > len(s.bins) {
		s.bins = append(s.bins, make([]uint64, n-len(s.bins))...)
	}
}

// Count returns the total number of recorded samples.
func (s *Sketch) Count() uint64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Sum returns the sum of the recorded samples.
func (s *Sketch) Sum() float64 {
	if s == nil {
		return 0
	}
	return s.sum
}

// Mean returns the mean of the recorded samples (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.Count() == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the exact smallest recorded sample (0 when empty).
func (s *Sketch) Min() float64 {
	if s.Count() == 0 {
		return 0
	}
	return s.minSeen
}

// Max returns the exact largest recorded sample (0 when empty).
func (s *Sketch) Max() float64 {
	if s.Count() == 0 {
		return 0
	}
	return s.maxSeen
}

// Quantile returns the q-quantile by nearest rank (Rank) over the
// cumulative bin counts, reporting the geometric midpoint of the
// selected bin clamped to the exact observed [Min, Max]. Empty sketches
// return 0; q outside [0,1] clamps to the extremes.
func (s *Sketch) Quantile(q float64) float64 {
	if s.Count() == 0 {
		return 0
	}
	rank := uint64(Rank(q, int(s.count)))
	// Ranks landing in the overflow bin report the exact maximum.
	v := s.maxSeen
	if rank < s.zero {
		v = 0
	} else {
		cum := s.zero
		for i, c := range s.bins {
			cum += c
			if rank < cum {
				v = minV * math.Pow(gamma, float64(i)+0.5)
				break
			}
		}
	}
	return min(max(v, s.minSeen), s.maxSeen)
}

// Merge folds o into s: bin counts add elementwise, which is exact.
func (s *Sketch) Merge(o *Sketch) {
	if s == nil || o.Count() == 0 {
		return
	}
	if s.count == 0 || o.minSeen < s.minSeen {
		s.minSeen = o.minSeen
	}
	if s.count == 0 || o.maxSeen > s.maxSeen {
		s.maxSeen = o.maxSeen
	}
	s.zero += o.zero
	s.over += o.over
	s.count += o.count
	s.sum += o.sum
	s.grow(len(o.bins))
	for i, c := range o.bins {
		s.bins[i] += c
	}
}
