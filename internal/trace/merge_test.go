package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestMergeShardsCanonicalOrder(t *testing.T) {
	a := New(Options{})
	a.SetShard(0)
	b := New(Options{})
	b.SetShard(1)
	// Interleaved times, including a cross-shard tie at t=2 that must
	// resolve shard 0 before shard 1.
	a.Emit(KindRoundStart, 1.0, 0, 0, 1, 0, 0)
	a.Emit(KindRoundStart, 2.0, 0, 0, 2, 0, 0)
	b.Emit(KindRoundStart, 0.5, 5, 0, 3, 0, 0)
	b.Emit(KindRoundStart, 2.0, 5, 0, 4, 0, 0)
	m := MergeShards([]*Tracer{a, b})
	recs := m.Records()
	if len(recs) != 4 {
		t.Fatalf("merged %d records, want 4", len(recs))
	}
	wantA := []uint64{3, 1, 2, 4}
	for i, r := range recs {
		if r.A != wantA[i] {
			t.Fatalf("merged order: record %d has A=%d, want %d", i, r.A, wantA[i])
		}
		if r.Seq != uint64(i) {
			t.Fatalf("record %d not re-sequenced: seq %d", i, r.Seq)
		}
	}
	if recs[1].Shard != 0 || recs[3].Shard != 1 {
		t.Fatalf("shard attribution lost: %d/%d", recs[1].Shard, recs[3].Shard)
	}
}

func TestShardFieldJSONLRoundTripAndLegacyBytes(t *testing.T) {
	// Unsharded records must serialize without any shard field (legacy
	// golden compatibility).
	plain := New(Options{})
	plain.Emit(KindCSPSend, 1.5, 3, 0, 7, 2, 0)
	var buf bytes.Buffer
	if err := plain.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "shard") {
		t.Fatalf("unsharded export leaked a shard field: %s", buf.String())
	}

	// Sharded records round-trip the tag, including shard 0.
	sh := New(Options{})
	sh.SetShard(0)
	sh.Emit(KindCSPSend, 1.5, 3, 0, 7, 2, 0)
	buf.Reset()
	if err := sh.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"shard":0`) {
		t.Fatalf("shard 0 not exported: %s", buf.String())
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Shard != 0 {
		t.Fatalf("shard tag did not round-trip: %+v", back)
	}
}

// TestMergeShardsSizesRingsToRecords: the merged tracer holds exactly
// its records — each node's ring is sized to that node's record count,
// not to the whole merged trace — and drops none of them.
func TestMergeShardsSizesRingsToRecords(t *testing.T) {
	var shards []*Tracer
	for s := 0; s < 2; s++ {
		tr := New(Options{})
		tr.SetShard(s)
		for n := 0; n < 8; n++ {
			node := s*8 + n
			for k := 0; k <= node; k++ {
				tr.Emit(KindRoundStart, float64(k)+0.1*float64(node), node, 0, uint64(k), 0, 0)
			}
		}
		tr.Emit(KindFrameTx, 0.5, -1, 0, 1, 64, 0)
		shards = append(shards, tr)
	}
	m := MergeShards(shards)
	capacity := 0
	for i := range m.rings {
		capacity += len(m.rings[i].buf)
	}
	if want := 136 + 2; m.Len() != want {
		t.Fatalf("merged %d records, want %d", m.Len(), want)
	}
	if capacity != m.Len() {
		t.Fatalf("merged rings hold %d slots for %d records", capacity, m.Len())
	}
	if m.Dropped() != 0 {
		t.Fatalf("merge dropped %d records", m.Dropped())
	}
}
