package interval

import (
	"math/rand"
	"testing"

	"ntisim/internal/timefmt"
)

// Adversarial-input differential tests: the paper's fault-tolerance
// claim is that the convergence functions bound the damage f arbitrary
// (Byzantine) inputs can do. Here liars get to pick worst-case
// intervals — disjoint from true time, two-faced (a different lie per
// receiver view), or barely-overlapping — and the properties under test
// are (a) the fused interval still contains true time whenever at least
// n−f inputs do, and (b) the zero-alloc Fuser stays bit-identical to
// the reference functions (reference_test.go) on exactly these hostile inputs.

// mkHonest builds an interval containing T with randomized asymmetric
// bounds and a randomized reference point inside them.
func mkHonest(rng *rand.Rand, T timefmt.Stamp) Interval {
	minus := timefmt.DurationFromSeconds(50e-6 + 400e-6*rng.Float64())
	plus := timefmt.DurationFromSeconds(50e-6 + 400e-6*rng.Float64())
	// Slide the reference anywhere that keeps T ∈ [ref−minus, ref+plus],
	// i.e. the offset from T within [−plus, minus].
	off := timefmt.Duration(rng.Int63n(int64(minus+plus)+1)) - plus
	return New(T.Add(off), minus, plus)
}

// mkLie builds a traitor's interval as one receiver view sees it: the
// lie magnitude is chosen in the nastiest band (comparable to honest
// widths, so it pulls edges rather than being obviously disjoint), with
// the sign flipped per trial like a two-faced clock's pair bit.
func mkLie(rng *rand.Rand, T timefmt.Stamp) Interval {
	mag := timefmt.DurationFromSeconds(200e-6 + 2e-3*rng.Float64())
	if rng.Intn(2) == 1 {
		mag = -mag
	}
	minus := timefmt.DurationFromSeconds(20e-6 + 200e-6*rng.Float64())
	plus := timefmt.DurationFromSeconds(20e-6 + 200e-6*rng.Float64())
	return New(T.Add(mag), minus, plus)
}

func TestFusionContainsTrueTimeUnderByzantineInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	T := timefmt.Stamp(0).Add(timefmt.DurationFromSeconds(100))
	var fz Fuser
	for f := 1; f <= 4; f++ {
		honest := 2*f + 1
		for trial := 0; trial < 200; trial++ {
			ivs := make([]Interval, 0, honest+f)
			for i := 0; i < honest; i++ {
				ivs = append(ivs, mkHonest(rng, T))
			}
			for i := 0; i < f; i++ {
				ivs = append(ivs, mkLie(rng, T))
			}
			rng.Shuffle(len(ivs), func(i, j int) { ivs[i], ivs[j] = ivs[j], ivs[i] })

			mz, ok := fz.Marzullo(ivs, f)
			if !ok {
				t.Fatalf("f=%d trial %d: Marzullo failed with %d honest inputs", f, trial, honest)
			}
			if !mz.Contains(T) {
				t.Fatalf("f=%d trial %d: Marzullo %v lost true time %v", f, trial, mz, T)
			}
			oa, ok := fz.OrthogonalAccuracy(ivs, f)
			if !ok {
				t.Fatalf("f=%d trial %d: OrthogonalAccuracy failed", f, trial)
			}
			if !oa.Contains(T) {
				t.Fatalf("f=%d trial %d: OrthogonalAccuracy %v lost true time %v", f, trial, oa, T)
			}
			// The FT-midpoint reference must stay inside its own edges,
			// or the interval is self-inconsistent.
			if oa.Ref < oa.Lo() || oa.Ref > oa.Hi() {
				t.Fatalf("f=%d trial %d: reference %v outside [%v, %v]", f, trial, oa.Ref, oa.Lo(), oa.Hi())
			}
		}
	}
}

// TestFuserMatchesReferenceOnAdversarialInputs pins the Fuser to the
// allocation-per-call reference functions bit-for-bit on hostile inputs —
// edge ties, barely-touching intervals, and lies engineered near the
// capture band, where a comparator or tie-rule divergence would show.
func TestFuserMatchesReferenceOnAdversarialInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(0xbad))
	T := timefmt.Stamp(0).Add(timefmt.DurationFromSeconds(42))
	var fz Fuser
	for trial := 0; trial < 500; trial++ {
		n := 3 + rng.Intn(8)
		f := rng.Intn(n) // deliberately includes f too large (degradeF path)
		ivs := make([]Interval, 0, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				ivs = append(ivs, mkHonest(rng, T))
			case 1:
				ivs = append(ivs, mkLie(rng, T))
			default:
				// Degenerate: zero-width point interval, sometimes
				// duplicated at an existing edge to force sort ties.
				if len(ivs) > 0 && rng.Intn(2) == 1 {
					ivs = append(ivs, Point(ivs[len(ivs)-1].Hi()))
				} else {
					ivs = append(ivs, Point(T.Add(timefmt.DurationFromSeconds(1e-3*rng.Float64()))))
				}
			}
		}
		got, gotOK := fz.OrthogonalAccuracy(ivs, f)
		want, wantOK := OrthogonalAccuracy(ivs, f)
		if gotOK != wantOK || got != want {
			t.Fatalf("trial %d: OrthogonalAccuracy mismatch: fuser (%v, %v) vs reference (%v, %v)", trial, got, gotOK, want, wantOK)
		}
		got, gotOK = fz.OrthogonalAccuracyFTA(ivs, f)
		want, wantOK = OrthogonalAccuracyFTA(ivs, f)
		if gotOK != wantOK || got != want {
			t.Fatalf("trial %d: OrthogonalAccuracyFTA mismatch: fuser (%v, %v) vs reference (%v, %v)", trial, got, gotOK, want, wantOK)
		}
		got, gotOK = fz.MarzulloMidpoint(ivs, f)
		want, wantOK = MarzulloMidpoint(ivs, f)
		if gotOK != wantOK || got != want {
			t.Fatalf("trial %d: MarzulloMidpoint mismatch: fuser (%v, %v) vs reference (%v, %v)", trial, got, gotOK, want, wantOK)
		}
	}
}
