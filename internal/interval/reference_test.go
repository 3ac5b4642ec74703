package interval

// The naive reference implementations of the convergence functions:
// one allocating, sort.Slice-based function per Fuser method, kept in
// test code as the oracle FuzzFuserMatchesReference and the unit tests
// compare the Fuser against bit for bit.

import (
	"sort"

	"ntisim/internal/timefmt"
)

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
