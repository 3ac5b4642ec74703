// Convergence functions: a Fuser owns reusable buffers so the
// per-round hot path of a long-running synchronizer computes Marzullo
// intersections and fault-tolerant midpoints without allocating. It is
// the package's only implementation of fusion; reference_test.go keeps
// naive allocating versions as the test oracle, and the Fuser must
// match them bit for bit (same edge ordering, same tie rules).

package interval

import (
	"sort"

	"ntisim/internal/timefmt"
)

// fuserEdge is one interval edge of the Marzullo sweep.
type fuserEdge struct {
	at    timefmt.Stamp
	delta int8 // +1 = interval opens, -1 = closes
}

// edgeSlice sorts edges by position, opens before closes at the same
// point (closed intervals touch).
type edgeSlice []fuserEdge

func (e edgeSlice) Len() int      { return len(e) }
func (e edgeSlice) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e edgeSlice) Less(i, j int) bool {
	if e[i].at != e[j].at {
		return e[i].at < e[j].at
	}
	return e[i].delta > e[j].delta
}

// stampSlice sorts reference points ascending.
type stampSlice []timefmt.Stamp

func (s stampSlice) Len() int           { return len(s) }
func (s stampSlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s stampSlice) Less(i, j int) bool { return s[i] < s[j] }

// Fuser computes the convergence functions with reusable scratch
// buffers: after warm-up no call allocates. A Fuser is single-goroutine
// state (one per synchronizer/discipline instance).
type Fuser struct {
	edges edgeSlice
	refs  stampSlice
}

// Marzullo computes the fault-tolerant intersection of the given
// intervals assuming at most f of them are faulty [Mar84]: the smallest
// interval containing every point that lies in at least n−f inputs. If
// fewer than n−f inputs overlap anywhere, ok is false. The result is
// referenced at its midpoint.
func (fz *Fuser) Marzullo(ivs []Interval, f int) (Interval, bool) {
	n := len(ivs)
	need := n - f
	if need <= 0 || n == 0 {
		return Interval{}, false
	}
	edges := fz.edges[:0]
	for _, iv := range ivs {
		edges = append(edges, fuserEdge{iv.Lo(), +1}, fuserEdge{iv.Hi(), -1})
	}
	fz.edges = edges
	sort.Sort(&fz.edges)
	var lo, hi timefmt.Stamp
	foundLo, foundHi := false, false
	depth := 0
	for _, e := range fz.edges {
		depth += int(e.delta)
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

// loadRefs fills the scratch reference-point buffer from ivs.
func (fz *Fuser) loadRefs(ivs []Interval) {
	refs := fz.refs[:0]
	for _, iv := range ivs {
		refs = append(refs, iv.Ref)
	}
	fz.refs = refs
}

// FTMidpoint computes the fault-tolerant midpoint of the intervals'
// reference points [LL84]/[KO87]: discard the f smallest and f largest
// values and return the midpoint of the extremes of the rest. It panics
// if 2f >= len(ivs).
func (fz *Fuser) FTMidpoint(ivs []Interval, f int) timefmt.Stamp {
	n := len(ivs)
	if 2*f >= n {
		panic("interval: FTMidpoint needs n > 2f")
	}
	fz.loadRefs(ivs)
	sort.Sort(&fz.refs)
	lo, hi := fz.refs[f], fz.refs[n-1-f]
	return lo.Add(hi.Sub(lo) / 2)
}

// FTAverage computes the fault-tolerant average of the intervals'
// reference points (the convergence function of [LL84]'s averaging
// variant and [KO87]'s CSU firmware): discard the f smallest and f
// largest values, return the arithmetic mean of the rest. Compared to
// the midpoint it weights every surviving input, trading worst-case
// contraction for noise averaging. It panics if 2f >= len(ivs).
func (fz *Fuser) FTAverage(ivs []Interval, f int) timefmt.Stamp {
	n := len(ivs)
	if 2*f >= n {
		panic("interval: FTAverage needs n > 2f")
	}
	fz.loadRefs(ivs)
	sort.Sort(&fz.refs)
	kept := fz.refs[f : n-f]
	base := kept[0]
	var acc int64
	for _, v := range kept {
		acc += int64(v.Sub(base))
	}
	return base.Add(timefmt.Duration(acc / int64(len(kept))))
}

// degradeF is the graceful degradation of the convergence functions:
// with fewer than 2f+1 inputs the full fault tolerance is not attainable
// this round (e.g. peers went silent), so fall back to the largest
// tolerable f rather than refusing to resynchronize.
func degradeF(ivs []Interval, f int) int {
	if 2*f >= len(ivs) && len(ivs) > 0 {
		f = (len(ivs) - 1) / 2
	}
	return f
}

// OrthogonalAccuracy is the OA convergence function of [Sch97b] as
// reconstructed from the paper's description (§5): precision is driven
// by a fault-tolerant-midpoint choice of the new reference point, while
// accuracy is maintained "orthogonally" by the Marzullo intersection of
// the input intervals. The returned interval always contains the
// Marzullo interval (hence real time, if at most f inputs are faulty).
//
// The reference point follows pure fault-tolerant-midpoint dynamics
// (that is what guarantees precision, [LL84]) and is NOT clamped into
// the Marzullo interval: when it falls outside, Rereference extends the
// interval instead, so real-time containment is preserved at the cost
// of a wider interval. Clamping would couple the reference to the
// node's own interval edge and can stall precision convergence.
func (fz *Fuser) OrthogonalAccuracy(ivs []Interval, f int) (Interval, bool) {
	f = degradeF(ivs, f)
	mz, ok := fz.Marzullo(ivs, f)
	if !ok {
		return Interval{}, false
	}
	return mz.Rereference(fz.FTMidpoint(ivs, f)), true
}

// OrthogonalAccuracyFTA is OrthogonalAccuracy with the reference point
// chosen by the fault-tolerant average instead of the midpoint — an
// ablation of the convergence-function comparison (experiment E14).
func (fz *Fuser) OrthogonalAccuracyFTA(ivs []Interval, f int) (Interval, bool) {
	f = degradeF(ivs, f)
	mz, ok := fz.Marzullo(ivs, f)
	if !ok {
		return Interval{}, false
	}
	return mz.Rereference(fz.FTAverage(ivs, f)), true
}

// MarzulloMidpoint is the convergence function that sets the new
// reference to the midpoint of the fault-tolerant intersection — pure
// Marzullo dynamics as used by NTP's clock selection, with graceful f
// degradation. Accuracy-optimal, but its reference point is dominated
// by whichever inputs bound the intersection, which couples precision
// to interval widths.
func (fz *Fuser) MarzulloMidpoint(ivs []Interval, f int) (Interval, bool) {
	return fz.Marzullo(ivs, degradeF(ivs, f))
}
