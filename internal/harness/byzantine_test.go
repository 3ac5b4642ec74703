package harness

import (
	"bytes"
	"testing"

	"ntisim/internal/adversary"
	"ntisim/internal/cluster"
	"ntisim/internal/gps"
)

// byzantineSpec is a small slice of the byzantine campaign preset: a
// 2-segment 8-node cluster with colluding traitors, triple GNSS
// sources, a mid-window spoof, and an honest baseline point.
func byzantineSpec(workers int) Spec {
	base := cluster.Defaults(8, 1)
	base.Segments = 2
	base.Sync.F = 2
	base.Sync.SourceF = 1
	base.GPS = map[int]gps.Config{0: gps.DefaultReceiver(), 1: gps.DefaultReceiver()}
	base.Adversary = adversary.Spec{
		Attack:     adversary.AttackCollude,
		MagnitudeS: 500e-6,
		Sources:    3,
		GNSS: []adversary.GNSSEvent{{
			Kind: adversary.GNSSSpoof, StartS: 4, EndS: 8,
			OffsetS: 20e-3, Sources: 1,
		}},
	}
	return Spec{
		Name:         "byzantine-test",
		Base:         base,
		Points:       TraitorsAxis(0, 0.375).Points,
		Seeds:        []uint64{11},
		WarmupS:      3,
		WindowS:      9,
		SampleEveryS: 1,
		DelayProbes:  4,
		Workers:      workers,
	}
}

// TestByzantineDeterminism extends the harness' core guarantee to
// adversarial cells: traitor casts, per-receiver lies, and multi-source
// quarantine decisions are pure functions of the cell seed, so the same
// byzantine grid is byte-identical across 1-vs-N campaign workers.
func TestByzantineDeterminism(t *testing.T) {
	ref := Run(byzantineSpec(1))
	for _, r := range ref.Results {
		if r.Err != "" {
			t.Fatalf("cell %s errored: %s", r.Key(), r.Err)
		}
	}
	want := jsonl(t, ref)
	if got := jsonl(t, Run(byzantineSpec(4))); !bytes.Equal(want, got) {
		t.Fatalf("JSONL differs at 4 workers:\n--- 1 ---\n%s\n--- 4 ---\n%s", want, got)
	}
}

// TestByzantineTotals checks the adversarial bookkeeping of the same
// grid: the honest baseline reports no adversary block damage, and the
// super-F traitor cell reports its cast, its delivered lies, and the
// spoof-window source rejections.
func TestByzantineTotals(t *testing.T) {
	c := Run(byzantineSpec(1))
	if len(c.Results) != 2 {
		t.Fatalf("cells = %d, want 2", len(c.Results))
	}
	for _, r := range c.Results {
		if r.Adversary == nil {
			t.Fatalf("cell %s: adversarial campaign lost its adversary totals", r.Key())
		}
		switch r.Params["traitors"] {
		case "0":
			if r.Adversary.Traitors != 0 || r.Adversary.LiesTold != 0 {
				t.Errorf("honest baseline reports %d traitors, %d lies", r.Adversary.Traitors, r.Adversary.LiesTold)
			}
			if r.Adversary.SourcesRejected == 0 {
				t.Error("honest baseline never quarantined the spoofed GNSS source")
			}
		case "0.375":
			if r.Adversary.Traitors != 3 {
				t.Errorf("traitors = %d, want 3 (0.375 of 8)", r.Adversary.Traitors)
			}
			if r.Adversary.LiesTold == 0 {
				t.Error("a 3-traitor cell delivered no lies")
			}
			if r.Adversary.HonestViolations == 0 {
				t.Error("a clique larger than F=2 should break honest containment")
			}
		default:
			t.Errorf("unexpected traitors param %q", r.Params["traitors"])
		}
	}
}
