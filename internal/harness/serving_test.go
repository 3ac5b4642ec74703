package harness

import (
	"bytes"
	"strings"
	"testing"

	"ntisim/internal/cluster"
)

// servingSpec is a small serving campaign over a 2-segment topology:
// clients × arrival grid, 2 seeds.
func servingSpec(workers int) Spec {
	base := cluster.Defaults(4, 1)
	base.Segments = 2
	base.Sync.F = 0
	base.Serving.RegionalSkew = 1.5
	return Spec{
		Name:         "serving-test",
		Base:         base,
		Points:       Cross(ClientsAxis(20000, 200000), ArrivalAxis()),
		Seeds:        []uint64{3, 4},
		WarmupS:      2,
		WindowS:      8,
		SampleEveryS: 1,
		DelayProbes:  4,
		Workers:      workers,
	}
}

// TestServingByteIdentity is the serving subsystem's determinism
// contract: served-accuracy metrics in the JSONL artifact are
// byte-identical across 1-vs-N campaign workers, because arrival
// streams derive from (seed, node) alone and sketches merge exactly.
func TestServingByteIdentity(t *testing.T) {
	ref := Run(servingSpec(1))
	for _, r := range ref.Results {
		if r.Err != "" {
			t.Fatalf("cell %s errored: %s", r.Key(), r.Err)
		}
		if r.Serving == nil {
			t.Fatalf("cell %s: no serving stats", r.Key())
		}
		sv := r.Serving
		if sv.Queries == 0 || sv.QPS == 0 {
			t.Fatalf("cell %s served nothing: %+v", r.Key(), sv)
		}
		if !(sv.ErrP50S <= sv.ErrP99S && sv.ErrP99S <= sv.ErrP999S && sv.ErrP999S <= sv.ErrMaxS) {
			t.Fatalf("cell %s: percentiles out of order: %+v", r.Key(), sv)
		}
	}
	want := jsonl(t, ref)
	if !strings.Contains(string(want), `"serving":{`) {
		t.Fatal("JSONL carries no serving records")
	}
	if got := jsonl(t, Run(servingSpec(4))); !bytes.Equal(want, got) {
		t.Errorf("JSONL at 4 workers differs from the 1-worker reference")
	}
}

// Cells without a population must not emit a serving field at all —
// the omitempty contract that keeps legacy golden artifacts intact.
func TestServingAbsentFromUnservedCells(t *testing.T) {
	c := Run(testSpec(2))
	for _, r := range c.Results {
		if r.Serving != nil {
			t.Fatalf("cell %s has serving stats without a population", r.Key())
		}
	}
	if b := jsonl(t, c); bytes.Contains(b, []byte("serving")) {
		t.Fatal("JSONL mentions serving on a campaign without a population")
	}
}

func TestArrivalAxisPanicsOnUnknown(t *testing.T) {
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("ArrivalAxis accepted an unknown process")
		}
	}()
	ArrivalAxis("uniform")
}

func TestClientsAxisDefaults(t *testing.T) {
	ax := ClientsAxis()
	if len(ax.Points) != 2 {
		t.Fatalf("default points = %d", len(ax.Points))
	}
	var cfg cluster.Config
	ax.Points[1].Mutate(&cfg)
	if cfg.Serving.Clients != 1000000 {
		t.Fatalf("default top population = %d, want 1e6", cfg.Serving.Clients)
	}
	if got, want := ax.Points[0].Params["clients"], "100000"; got != want {
		t.Fatalf("params[clients] = %q, want %q", got, want)
	}
}
