// Package interval implements accuracy-interval arithmetic for
// interval-based clock synchronization (paper §2).
//
// Real time t is represented by an accuracy interval A = [C−α⁻, C+α⁺]
// around a clock value C that must satisfy t ∈ A. The synchronization
// algorithms exchange such intervals, make them compatible (delay and
// drift compensation) and fuse them with a convergence function.
//
// All arithmetic is in the UTCSU's visible granularity (2⁻²⁴ s granules,
// timefmt.Duration/Stamp), matching what the hardware registers can hold.
package interval

import (
	"fmt"
	"sort"

	"ntisim/internal/timefmt"
)

// Interval is an accuracy interval: reference point Ref (a clock reading)
// with non-negative accuracies Minus (α⁻) and Plus (α⁺).
type Interval struct {
	Ref   timefmt.Stamp
	Minus timefmt.Duration
	Plus  timefmt.Duration
}

// New builds an interval, clamping negative accuracies to zero as the
// ACU's zero-masking logic does (paper §3.3).
func New(ref timefmt.Stamp, minus, plus timefmt.Duration) Interval {
	if minus < 0 {
		minus = 0
	}
	if plus < 0 {
		plus = 0
	}
	return Interval{Ref: ref, Minus: minus, Plus: plus}
}

// FromEdges builds an interval spanning [lo, hi] with the reference at a
// given point inside (clamped to the edges if outside).
func FromEdges(lo, hi timefmt.Stamp, ref timefmt.Stamp) Interval {
	if hi < lo {
		hi = lo
	}
	if ref < lo {
		ref = lo
	}
	if ref > hi {
		ref = hi
	}
	return Interval{Ref: ref, Minus: ref.Sub(lo), Plus: hi.Sub(ref)}
}

// Point returns a zero-width interval at ref.
func Point(ref timefmt.Stamp) Interval { return Interval{Ref: ref} }

// Lo returns the lower edge C−α⁻.
func (iv Interval) Lo() timefmt.Stamp { return iv.Ref.Add(-iv.Minus) }

// Hi returns the upper edge C+α⁺.
func (iv Interval) Hi() timefmt.Stamp { return iv.Ref.Add(iv.Plus) }

// Length returns α⁻+α⁺.
func (iv Interval) Length() timefmt.Duration { return iv.Minus + iv.Plus }

// Contains reports whether t lies within the interval (inclusive).
func (iv Interval) Contains(t timefmt.Stamp) bool {
	return iv.Lo() <= t && t <= iv.Hi()
}

// ContainsInterval reports whether iv fully covers other.
func (iv Interval) ContainsInterval(other Interval) bool {
	return iv.Lo() <= other.Lo() && other.Hi() <= iv.Hi()
}

// Midpoint returns the centre of the interval.
func (iv Interval) Midpoint() timefmt.Stamp {
	return iv.Lo().Add(iv.Length() / 2)
}

// Shift translates the whole interval by d (reference and edges alike).
func (iv Interval) Shift(d timefmt.Duration) Interval {
	iv.Ref = iv.Ref.Add(d)
	return iv
}

// Enlarge grows the interval by extra uncertainty on each side.
func (iv Interval) Enlarge(minus, plus timefmt.Duration) Interval {
	return New(iv.Ref, iv.Minus+minus, iv.Plus+plus)
}

// Rereference moves the reference point to ref, keeping the edges fixed.
// If ref lies outside the interval the nearer accuracy is zero-masked and
// the interval is extended on that side so real-time containment is
// preserved.
func (iv Interval) Rereference(ref timefmt.Stamp) Interval {
	lo, hi := iv.Lo(), iv.Hi()
	if lo > ref {
		lo = ref
	}
	if hi < ref {
		hi = ref
	}
	return Interval{Ref: ref, Minus: ref.Sub(lo), Plus: hi.Sub(ref)}
}

// Intersect returns the intersection of two intervals with the reference
// of iv re-clamped inside, and ok=false if they are disjoint.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	lo, hi := iv.Lo(), iv.Hi()
	if o := other.Lo(); o > lo {
		lo = o
	}
	if o := other.Hi(); o < hi {
		hi = o
	}
	if hi < lo {
		return Interval{}, false
	}
	return FromEdges(lo, hi, iv.Ref), true
}

// Union returns the smallest interval covering both inputs, referenced at
// iv.Ref.
func (iv Interval) Union(other Interval) Interval {
	lo, hi := iv.Lo(), iv.Hi()
	if o := other.Lo(); o < lo {
		lo = o
	}
	if o := other.Hi(); o > hi {
		hi = o
	}
	return FromEdges(lo, hi, iv.Ref)
}

// DelayCompensate adapts an interval received in a CSP to the receiving
// node's time base (paper §2 step 2, first operation): the reference is
// advanced by the nominal transmission delay and the edges are enlarged by
// the delay uncertainty. delayMin/delayMax bound the true end-to-end delay
// between the peers' timestamping points.
func (iv Interval) DelayCompensate(delayMin, delayMax timefmt.Duration) Interval {
	if delayMax < delayMin {
		delayMin, delayMax = delayMax, delayMin
	}
	nominal := (delayMin + delayMax) / 2
	out := iv.Shift(nominal)
	return out.Enlarge(nominal-delayMin, delayMax-nominal)
}

// DriftCompensate shifts the interval forward by elapsed local-clock time
// dt and deteriorates both accuracies by the maximum drift the local clock
// may have accumulated meanwhile (paper §2 step 2, second operation).
// rhoPPB is the drift bound in parts per billion.
func (iv Interval) DriftCompensate(dt timefmt.Duration, rhoPPB int64) Interval {
	det := DriftDeterioration(dt, rhoPPB)
	out := iv.Shift(dt)
	return out.Enlarge(det, det)
}

// DriftDeterioration returns ⌈|dt|·ρ⌉ in granules: the accuracy loss of a
// clock with drift bound rhoPPB over a span dt, rounded up so containment
// is conservative.
func DriftDeterioration(dt timefmt.Duration, rhoPPB int64) timefmt.Duration {
	if dt < 0 {
		dt = -dt
	}
	num := int64(dt) * rhoPPB
	d := num / 1_000_000_000
	if num%1_000_000_000 != 0 {
		d++
	}
	return timefmt.Duration(d)
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%v -%v +%v]", iv.Ref, iv.Minus, iv.Plus)
}

// Marzullo computes the fault-tolerant intersection of the given
// intervals assuming at most f of them are faulty [Mar84]: the smallest
// interval containing every point that lies in at least n−f inputs. If
// fewer than n−f inputs overlap anywhere, ok is false. The result is
// referenced at its midpoint.
func Marzullo(ivs []Interval, f int) (Interval, bool) {
	n := len(ivs)
	need := n - f
	if need <= 0 || n == 0 {
		return Interval{}, false
	}
	type edge struct {
		at    timefmt.Stamp
		delta int // +1 = interval opens, -1 = closes
	}
	edges := make([]edge, 0, 2*n)
	for _, iv := range ivs {
		edges = append(edges, edge{iv.Lo(), +1}, edge{iv.Hi(), -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		// Open before close at the same point: closed intervals touch.
		return edges[i].delta > edges[j].delta
	})
	var lo, hi timefmt.Stamp
	foundLo, foundHi := false, false
	depth := 0
	for _, e := range edges {
		depth += e.delta
		if e.delta > 0 && depth >= need && !foundLo {
			lo, foundLo = e.at, true
		}
		// Keep advancing hi to the LAST close that drops below need:
		// Byzantine inputs can split the depth-(n−f) coverage into
		// disjoint regions, and true time is only guaranteed to lie in
		// one of them — the hull over all of them is what the contract
		// (and the containment theorem) requires, not the leftmost.
		if e.delta < 0 && depth == need-1 && foundLo {
			hi, foundHi = e.at, true
		}
	}
	if !foundLo || !foundHi || hi < lo {
		return Interval{}, false
	}
	mid := lo.Add(hi.Sub(lo) / 2)
	return FromEdges(lo, hi, mid), true
}

// FTMidpoint computes the fault-tolerant midpoint of the reference points
// [LL84]/[KO87]: discard the f smallest and f largest values and return
// the midpoint of the extremes of the rest. It panics if 2f >= len(refs).
func FTMidpoint(refs []timefmt.Stamp, f int) timefmt.Stamp {
	n := len(refs)
	if 2*f >= n {
		panic("interval: FTMidpoint needs n > 2f")
	}
	sorted := make([]timefmt.Stamp, n)
	copy(sorted, refs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	lo, hi := sorted[f], sorted[n-1-f]
	return lo.Add(hi.Sub(lo) / 2)
}

// OrthogonalAccuracy is the OA convergence function of [Sch97b] as
// reconstructed from the paper's description (§5): precision is driven by
// a fault-tolerant-midpoint-style choice of the new reference point, while
// accuracy is maintained "orthogonally" by the Marzullo intersection of
// the input intervals. The returned interval always contains the Marzullo
// interval (hence real time, if at most f inputs are faulty).
func OrthogonalAccuracy(ivs []Interval, f int) (Interval, bool) {
	// With fewer than 2f+1 inputs the full fault tolerance is not
	// attainable this round (e.g. peers went silent); degrade gracefully
	// to the largest tolerable f rather than refusing to resynchronize.
	if 2*f >= len(ivs) && len(ivs) > 0 {
		f = (len(ivs) - 1) / 2
	}
	mz, ok := Marzullo(ivs, f)
	if !ok {
		return Interval{}, false
	}
	refs := make([]timefmt.Stamp, len(ivs))
	for i, iv := range ivs {
		refs[i] = iv.Ref
	}
	ref := FTMidpoint(refs, f)
	// Orthogonality: the reference point follows pure fault-tolerant-
	// midpoint dynamics (that is what guarantees precision, [LL84]), and
	// is NOT clamped into the Marzullo interval — when it falls outside,
	// Rereference extends the interval instead, so real-time containment
	// (accuracy) is preserved at the cost of a wider interval. Clamping
	// would couple the reference to the node's own interval edge and can
	// stall precision convergence entirely.
	return mz.Rereference(ref), true
}

// FTAverage computes the fault-tolerant average of the reference points
// (the convergence function of [LL84]'s averaging variant and [KO87]'s
// CSU firmware): discard the f smallest and f largest values, return the
// arithmetic mean of the rest. Compared to the midpoint it weights every
// surviving input, trading worst-case contraction for noise averaging.
// It panics if 2f >= len(refs).
func FTAverage(refs []timefmt.Stamp, f int) timefmt.Stamp {
	n := len(refs)
	if 2*f >= n {
		panic("interval: FTAverage needs n > 2f")
	}
	sorted := make([]timefmt.Stamp, n)
	copy(sorted, refs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	kept := sorted[f : n-f]
	base := kept[0]
	var acc int64
	for _, v := range kept {
		acc += int64(v.Sub(base))
	}
	return base.Add(timefmt.Duration(acc / int64(len(kept))))
}

// OrthogonalAccuracyFTA is OrthogonalAccuracy with the reference point
// chosen by the fault-tolerant average instead of the midpoint — the
// ablation used by the convergence-function comparison (experiment E14).
func OrthogonalAccuracyFTA(ivs []Interval, f int) (Interval, bool) {
	if 2*f >= len(ivs) && len(ivs) > 0 {
		f = (len(ivs) - 1) / 2
	}
	mz, ok := Marzullo(ivs, f)
	if !ok {
		return Interval{}, false
	}
	refs := make([]timefmt.Stamp, len(ivs))
	for i, iv := range ivs {
		refs[i] = iv.Ref
	}
	return mz.Rereference(FTAverage(refs, f)), true
}

// MarzulloMidpoint is the convergence function that sets the new
// reference to the midpoint of the fault-tolerant intersection — pure
// Marzullo dynamics as used by NTP's clock selection. Accuracy-optimal,
// but its reference point is dominated by whichever inputs bound the
// intersection, which couples precision to interval widths.
func MarzulloMidpoint(ivs []Interval, f int) (Interval, bool) {
	if 2*f >= len(ivs) && len(ivs) > 0 {
		f = (len(ivs) - 1) / 2
	}
	return Marzullo(ivs, f)
}

// Validate implements interval-based clock validation [Sch94] (paper §2):
// a highly accurate but possibly faulty external interval (e.g. from a
// GPS receiver) is accepted only if it is consistent with the reliable
// validation interval; otherwise the validation interval is returned and
// accepted=false.
func Validate(external, validation Interval) (Interval, bool) {
	x, ok := external.Intersect(validation)
	if !ok {
		return validation, false
	}
	// Consistent: the (much smaller) intersection, referenced as close to
	// the external reference as the intersection permits.
	return x.Rereference(clampStamp(external.Ref, x.Lo(), x.Hi())), true
}

func clampStamp(v, lo, hi timefmt.Stamp) timefmt.Stamp {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
