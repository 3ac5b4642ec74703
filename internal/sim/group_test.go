package sim

import (
	"reflect"
	"testing"
)

func TestDeriveSeedMatchesDerive(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF} {
		for _, label := range []string{"", "shard/0", "shard/17", "medium"} {
			a := NewRNG(DeriveSeed(seed, label))
			b := NewRNG(seed).Derive(label)
			for i := 0; i < 8; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("seed %d label %q draw %d: DeriveSeed stream %x != Derive stream %x",
						seed, label, i, x, y)
				}
			}
		}
	}
}

func TestGroupFlushTieBreakOrder(t *testing.T) {
	sims := []*Simulator{New(1), New(2), New(3)}
	g := NewGroup(1e-3, sims, nil)
	var order []int
	// Post out of source order, all to shard 0 at the same time; the
	// canonical flush order is (at, src, posting order).
	for _, src := range []int{2, 0, 1} {
		src := src
		g.Post(src, 0, 5e-3, func() { order = append(order, src) })
	}
	g.Post(1, 0, 4e-3, func() { order = append(order, 99) }) // earlier time wins regardless of src
	g.RunUntil(10e-3)
	want := []int{99, 0, 1, 2}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("flush order = %v, want %v", order, want)
	}
}

func TestGroupPostLookaheadViolationPanics(t *testing.T) {
	sims := []*Simulator{New(1), New(2)}
	g := NewGroup(1e-3, sims, nil)
	sims[0].At(0.5e-3, func() {
		// Window end is 1e-3; targeting before it violates lookahead.
		defer func() {
			if recover() == nil {
				t.Error("expected panic from lookahead violation")
			}
		}()
		g.Post(0, 1, 0.9e-3, func() {})
	})
	g.RunUntil(2e-3)
}

// TestGroupWorkerPanicPropagates: a panic in one shard's model reaches
// the RunUntil caller unchanged.
func TestGroupWorkerPanicPropagates(t *testing.T) {
	sims := []*Simulator{New(1), New(2), New(3), New(4)}
	g := NewGroup(1e-3, sims, nil)
	sims[2].At(0.4e-3, func() { panic("shard model exploded") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the shard panic to propagate to RunUntil's caller")
		}
		if s, ok := r.(string); !ok || s != "shard model exploded" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	g.RunUntil(2e-3)
}

func TestGroupRunUntilReachesHorizon(t *testing.T) {
	sims := []*Simulator{New(1), New(2)}
	g := NewGroup(1e-3, sims, nil)
	if got := g.RunUntil(0.0137); got != 0.0137 {
		t.Fatalf("group clock = %v, want horizon", got)
	}
	for i, s := range sims {
		if s.Now() != 0.0137 {
			t.Fatalf("shard %d clock = %v, want horizon", i, s.Now())
		}
	}
}
