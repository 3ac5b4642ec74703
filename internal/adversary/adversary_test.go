package adversary

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"ntisim/internal/csp"
	"ntisim/internal/gps"
	"ntisim/internal/timefmt"
)

func TestCastIsDeterministicAndExact(t *testing.T) {
	spec := Spec{TraitorFrac: 0.25, Attack: AttackCollude}
	a := NewLayer(spec, 99, 16)
	if a == nil {
		t.Fatal("NewLayer returned nil for an enabled spec")
	}
	if got := len(a.Traitors()); got != 4 {
		t.Fatalf("traitor count = %d, want 4 (0.25 of 16)", got)
	}
	for _, id := range a.Traitors() {
		if !a.Traitor(id) || a.Role(id) != AttackCollude {
			t.Fatalf("traitor %d has role %q", id, a.Role(id))
		}
	}
	// A different seed recasts; a repeat of the same seed does not.
	c := NewLayer(spec, 99, 16)
	if !reflect.DeepEqual(a.Traitors(), c.Traitors()) {
		t.Fatalf("same seed recast differently: %v vs %v", a.Traitors(), c.Traitors())
	}
}

func TestMixedAttackCyclesRoles(t *testing.T) {
	l := NewLayer(Spec{TraitorFrac: 0.5, Attack: AttackMixed}, 7, 12)
	counts := map[string]int{}
	for _, id := range l.Traitors() {
		counts[l.Role(id)]++
	}
	if counts[AttackCollude] != 2 || counts[AttackTwoFaced] != 2 || counts[AttackDelayAsym] != 2 {
		t.Fatalf("mixed cast of 6 split %v, want 2/2/2", counts)
	}
}

func TestDisabledAndNilLayerAreInert(t *testing.T) {
	if l := NewLayer(Spec{}, 1, 8); l != nil {
		t.Fatal("empty spec should yield a nil layer")
	}
	var l *Layer
	if l.Traitor(0) || l.Role(0) != "" || l.LiesTold() != 0 || l.Traitors() != nil {
		t.Fatal("nil layer must answer as fully honest")
	}
}

// lieFrame builds a minimal on-wire CSP header from a traitorous sender
// with a valid hardware transmit stamp inserted.
func lieFrame(src int, st timefmt.Stamp) []byte {
	p := make([]byte, csp.HeaderSize)
	p[csp.OffKind] = byte(csp.KindCSP)
	binary.BigEndian.PutUint16(p[csp.OffNode:], uint16(src))
	w1, w2 := st.Words()
	binary.BigEndian.PutUint32(p[csp.OffTxStamp:], w1)
	binary.BigEndian.PutUint32(p[csp.OffTxMacro:], w2)
	return p
}

func readStamp(t *testing.T, p []byte) timefmt.Stamp {
	t.Helper()
	st, ok := timefmt.FromWords(
		binary.BigEndian.Uint32(p[csp.OffTxStamp:]),
		binary.BigEndian.Uint32(p[csp.OffTxMacro:]))
	if !ok {
		t.Fatal("mutated frame carries an invalid stamp")
	}
	return st
}

func TestMutateColludeShiftsStampWithoutAliasing(t *testing.T) {
	const magS = 500e-6
	l := NewLayer(Spec{TraitorFrac: 0.25, Attack: AttackCollude, MagnitudeS: magS}, 42, 8)
	src := l.Traitors()[0]
	st := timefmt.Stamp(0).Add(timefmt.DurationFromSeconds(5))
	orig := lieFrame(src, st)
	snapshot := append([]byte(nil), orig...)

	out, gotSrc, delta, ok := l.mutate(orig, 3, 1.0)
	if !ok {
		t.Fatal("traitor frame passed honestly")
	}
	if gotSrc != src {
		t.Fatalf("mutate attributed src %d, want %d", gotSrc, src)
	}
	// The lie is applied in NTT granules, so compare the quantized value.
	if want := timefmt.DurationFromSeconds(magS).Seconds(); delta != want {
		t.Fatalf("delta = %g, want +%g (collusion is a common false time)", delta, want)
	}
	if !bytes.Equal(orig, snapshot) {
		t.Fatal("mutate edited the shared broadcast payload in place")
	}
	want := st.Add(timefmt.DurationFromSeconds(magS))
	if got := readStamp(t, out); got != want {
		t.Fatalf("forged stamp = %v, want %v", got, want)
	}
	// Everything outside the checksum-exempt stamp words is untouched.
	if !bytes.Equal(out[:csp.OffTxStamp], orig[:csp.OffTxStamp]) ||
		!bytes.Equal(out[csp.OffTxAlpha:], orig[csp.OffTxAlpha:]) {
		t.Fatal("mutate edited bytes outside the hardware stamp region")
	}
}

func TestMutateTwoFacedSignFollowsPairBit(t *testing.T) {
	l := NewLayer(Spec{TraitorFrac: 0.25, Attack: AttackTwoFaced, MagnitudeS: 500e-6}, 42, 8)
	src := l.Traitors()[0]
	st := timefmt.Stamp(0).Add(timefmt.DurationFromSeconds(5))
	sawPlus, sawMinus := false, false
	for dst := 0; dst < 8; dst++ {
		if dst == src {
			continue
		}
		_, _, delta, ok := l.mutate(lieFrame(src, st), dst, 1.0)
		if !ok {
			t.Fatalf("two-faced traitor passed honestly to dst %d", dst)
		}
		wantNeg := l.pairBit(src, dst)
		if (delta < 0) != wantNeg {
			t.Fatalf("dst %d: delta %g disagrees with pair bit %v", dst, delta, wantNeg)
		}
		// Determinism: the same pair always sees the same face.
		_, _, again, _ := l.mutate(lieFrame(src, st), dst, 2.0)
		if again != delta {
			t.Fatalf("dst %d saw two different faces: %g then %g", dst, delta, again)
		}
		sawPlus = sawPlus || delta > 0
		sawMinus = sawMinus || delta < 0
	}
	if !sawPlus || !sawMinus {
		t.Fatalf("two-faced clock showed only one face across 7 receivers (plus=%v minus=%v)", sawPlus, sawMinus)
	}
}

func TestMutatePassesHonestAndNonCSPTraffic(t *testing.T) {
	l := NewLayer(Spec{TraitorFrac: 0.25, Attack: AttackCollude, StartS: 10}, 42, 8)
	src := l.Traitors()[0]
	st := timefmt.Stamp(0).Add(timefmt.DurationFromSeconds(5))
	honest := -1
	for i := 0; i < 8; i++ {
		if !l.Traitor(i) {
			honest = i
			break
		}
	}
	if _, _, _, ok := l.mutate(lieFrame(honest, st), 3, 20); ok {
		t.Fatal("honest sender was mutated")
	}
	if _, _, _, ok := l.mutate(lieFrame(src, st), 3, 5); ok {
		t.Fatal("lie told before the attack onset StartS")
	}
	rtt := lieFrame(src, st)
	rtt[csp.OffKind] = byte(csp.KindRTTReq)
	if _, _, _, ok := l.mutate(rtt, 3, 20); ok {
		t.Fatal("non-CSP frame (RTT probe) was mutated — delay calibration must stay clean")
	}
	if _, _, _, ok := l.mutate(lieFrame(src, st)[:csp.HeaderSize-1], 3, 20); ok {
		t.Fatal("truncated frame was mutated")
	}
}

func TestSourceFaultsAppendsWithoutMutatingBase(t *testing.T) {
	base := []gps.Fault{{Kind: gps.FaultOutage, Start: 1}}
	spec := Spec{GNSS: []GNSSEvent{
		{Kind: GNSSSpoof, StartS: 25, EndS: 35, OffsetS: 20e-3, Sources: 1},
		{Kind: GNSSOutage, StartS: 40, EndS: 50},
	}}
	got0 := spec.SourceFaults(0, base)
	if len(got0) != 3 {
		t.Fatalf("source 0 faults = %d, want 3 (base + spoof + outage)", len(got0))
	}
	got2 := spec.SourceFaults(2, base)
	if len(got2) != 2 {
		t.Fatalf("source 2 faults = %d, want 2 (spoof limited to Sources=1)", len(got2))
	}
	if len(base) != 1 {
		t.Fatalf("SourceFaults mutated the caller's base slice: %v", base)
	}
	none := Spec{}
	if got := none.SourceFaults(0, base); &got[0] != &base[0] {
		t.Fatal("no GNSS events should return base unchanged, not a copy")
	}
}
