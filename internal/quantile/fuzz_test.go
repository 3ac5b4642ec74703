package quantile

import (
	"math"
	"slices"
	"testing"
)

// decodeStream turns fuzz bytes into a weighted sample stream, 4 bytes
// per sample: a decade exponent in [-12, 12] (so the near-zero and
// overflow bins are reachable), a 16-bit mantissa in [1, 2) and a
// weight in [0, 255] (weight 0 is a no-op AddN).
func decodeStream(b []byte) (vals []float64, weights []uint64) {
	for ; len(b) >= 4; b = b[4:] {
		exp := int(b[0]%25) - 12
		mant := 1 + float64(uint16(b[1])<<8|uint16(b[2]))/65536
		vals = append(vals, mant*math.Pow(10, float64(exp)))
		weights = append(weights, uint64(b[3]))
	}
	return vals, weights
}

// FuzzSketchMerge splits a weighted stream into two sketches at a
// fuzz-chosen point: the merged sketch must equal the sketch of the
// whole stream bit for bit in count, min, max, every bin and every
// percentile. The sum is a float accumulation in a different order, so
// it must only agree to 1e-12 relative.
func FuzzSketchMerge(f *testing.F) {
	f.Add([]byte{12, 0, 0, 1, 3, 128, 0, 7, 24, 255, 255, 2}, uint16(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 20, 9, 10, 200, 8, 0, 0, 0}, uint16(2))
	f.Fuzz(func(t *testing.T, stream []byte, split uint16) {
		vals, weights := decodeStream(stream)
		cut := int(split) % (len(vals) + 1)
		whole, a, b := New(), New(), New()
		for i, v := range vals {
			whole.AddN(v, weights[i])
			if i < cut {
				a.AddN(v, weights[i])
			} else {
				b.AddN(v, weights[i])
			}
		}
		a.Merge(b)
		if a.Count() != whole.Count() || a.Min() != whole.Min() || a.Max() != whole.Max() ||
			a.zero != whole.zero || a.over != whole.over {
			t.Fatalf("merged summary (n=%d min=%g max=%g zero=%d over=%d) != whole (n=%d min=%g max=%g zero=%d over=%d)",
				a.Count(), a.Min(), a.Max(), a.zero, a.over,
				whole.Count(), whole.Min(), whole.Max(), whole.zero, whole.over)
		}
		if !slices.Equal(a.bins, whole.bins) {
			t.Fatalf("merged bins differ from the whole stream's (len %d vs %d)", len(a.bins), len(whole.bins))
		}
		for i := 0; i <= 101; i++ {
			q := float64(i) / 100 // every percentile, then p99.9
			if i > 100 {
				q = 0.999
			}
			if got, want := a.Quantile(q), whole.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("q=%g: merged %g != whole %g", q, got, want)
			}
		}
		if d := math.Abs(a.Sum() - whole.Sum()); d > 1e-12*whole.Sum() {
			t.Fatalf("merged sum %g vs whole %g (diff %g)", a.Sum(), whole.Sum(), d)
		}
	})
}
