package interval

import (
	"testing"

	"ntisim/internal/timefmt"
)

// fusionCase is one decoded fuzz input: intervals around a true time
// t0 of which at most degradeF(ivs, f) are arbitrary (liars).
type fusionCase struct {
	ivs   []Interval
	f     int
	t0    timefmt.Stamp
	liars int
}

// decodeFusionCase maps fuzz bytes onto a fusion problem. Layout: n−1
// (mod 9), f (mod 10), t0 offset, a 16-bit liar mask, then three bytes
// per interval (offset, α⁻, α⁺); missing bytes read as zero. Honest
// intervals slide their reference so that they still contain t0; a
// liar's reference is anywhere within ±512 granules of t0. Widths are
// a few hundred granules, so edge ties are common.
func decodeFusionCase(data []byte) fusionCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%9
	c := fusionCase{ivs: make([]Interval, n), f: int(next()) % 10}
	c.t0 = timefmt.Stamp(1<<30 + 4*int64(int8(next())))
	mask := int(next()) | int(next())<<8
	maxLiars := degradeF(c.ivs, c.f)
	for i := range c.ivs {
		off, minus, plus := next(), timefmt.Duration(next()), timefmt.Duration(next())
		if mask&(1<<i) != 0 && c.liars < maxLiars {
			c.liars++
			c.ivs[i] = New(c.t0.Add(4*timefmt.Duration(int8(off))), minus, plus)
			continue
		}
		// t0 ∈ [ref−α⁻, ref+α⁺] ⇔ ref ∈ [t0−α⁺, t0+α⁻].
		ref := c.t0.Add(timefmt.Duration(off)%(minus+plus+1) - plus)
		c.ivs[i] = New(ref, minus, plus)
	}
	return c
}

// FuzzFuserMatchesReference is the fusion oracle. Every Fuser method
// must equal its allocation-per-call reference (reference_test.go) bit for bit
// (ok included), and with at most degradeF(n, f) liars among n inputs
// both Marzullo and OrthogonalAccuracy must succeed and contain t0 —
// the containment theorem of fault-tolerant intersection. The seed
// corpus in testdata/fuzz runs with plain go test; make fuzz-smoke
// explores further.
func FuzzFuserMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 4, 0x80, 0x0f, 0x00, 1, 200, 3, 7, 9, 9, 0x7f, 4, 4, 0xc0, 30, 1, 0, 0, 0, 33, 255, 1, 2, 2, 2, 90, 6, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFusionCase(data)
		var fz Fuser
		for _, fn := range []struct {
			name       string
			fuser, ref func([]Interval, int) (Interval, bool)
		}{
			{"Marzullo", fz.Marzullo, Marzullo},
			{"OrthogonalAccuracy", fz.OrthogonalAccuracy, OrthogonalAccuracy},
			{"OrthogonalAccuracyFTA", fz.OrthogonalAccuracyFTA, OrthogonalAccuracyFTA},
			{"MarzulloMidpoint", fz.MarzulloMidpoint, MarzulloMidpoint},
		} {
			got, gotOK := fn.fuser(c.ivs, c.f)
			want, wantOK := fn.ref(c.ivs, c.f)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s(n=%d, f=%d): Fuser (%v, %v), reference (%v, %v); inputs %v",
					fn.name, len(c.ivs), c.f, got, gotOK, want, wantOK, c.ivs)
			}
		}
		fd := degradeF(c.ivs, c.f)
		if got, want := fz.FTMidpoint(c.ivs, fd), FTMidpoint(refsOf(c.ivs), fd); got != want {
			t.Fatalf("FTMidpoint(n=%d, f=%d): Fuser %v, reference %v", len(c.ivs), fd, got, want)
		}
		if got, want := fz.FTAverage(c.ivs, fd), FTAverage(refsOf(c.ivs), fd); got != want {
			t.Fatalf("FTAverage(n=%d, f=%d): Fuser %v, reference %v", len(c.ivs), fd, got, want)
		}

		if mz, ok := Marzullo(c.ivs, fd); !ok || !mz.Contains(c.t0) {
			t.Fatalf("Marzullo(n=%d, f=%d) with %d liars = (%v, %v), lost t0 %v; inputs %v",
				len(c.ivs), fd, c.liars, mz, ok, c.t0, c.ivs)
		}
		if oa, ok := OrthogonalAccuracy(c.ivs, c.f); !ok || !oa.Contains(c.t0) {
			t.Fatalf("OrthogonalAccuracy(n=%d, f=%d) with %d liars = (%v, %v), lost t0 %v; inputs %v",
				len(c.ivs), c.f, c.liars, oa, ok, c.t0, c.ivs)
		}
	})
}
