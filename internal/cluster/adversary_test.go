package cluster

import (
	"testing"

	"ntisim/internal/adversary"
	"ntisim/internal/trace"
)

// TestAdversaryLieTraceWiring runs a traced adversarial cluster and
// checks the lie bookkeeping end to end: every delivered lie appears
// both in the layer's counters and as a KindLie trace record naming a
// cast traitor as the lying source and an honest node as the receiver.
func TestAdversaryLieTraceWiring(t *testing.T) {
	cfg := Defaults(4, 7)
	cfg.Adversary = adversary.Spec{TraitorFrac: 0.3, Attack: adversary.AttackTwoFaced}
	cfg.Tracer = trace.New(trace.Options{})
	c := New(cfg)
	c.Start(0.5)
	c.RunUntil(10)

	if got := c.TraitorCount(); got != 1 {
		t.Fatalf("TraitorCount = %d, want 1 (0.3 of 4)", got)
	}
	lies := 0
	for _, r := range cfg.Tracer.Records() {
		if r.Kind != trace.KindLie {
			continue
		}
		lies++
		if !c.Traitor(int(r.B)) {
			t.Fatalf("lie record names honest node %d as the liar", r.B)
		}
		if c.Traitor(int(r.Node)) {
			t.Fatalf("lie record delivered to traitor %d (traitors lie, they are not lied to here)", r.Node)
		}
		if r.V == 0 {
			t.Fatal("lie record carries a zero stamp shift")
		}
	}
	if lies == 0 {
		t.Fatal("traced adversarial run produced no lie records")
	}
	if uint64(lies) != c.AdversaryLies() {
		t.Fatalf("trace has %d lies but the layer counted %d", lies, c.AdversaryLies())
	}
}
