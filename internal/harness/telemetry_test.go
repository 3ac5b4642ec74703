package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntisim/internal/cluster"
	"ntisim/internal/gps"
)

func telemetryJSONL(t *testing.T, c *Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteTelemetryJSONL(&buf); err != nil {
		t.Fatalf("WriteTelemetryJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestTelemetryByteIdentityAcrossWorkers extends the harness' core
// determinism guarantee to the telemetry artifact: per-tick metric
// snapshots are pure functions of (config, seed, sim time), so the
// combined JSONL is byte-identical at any worker count.
func TestTelemetryByteIdentityAcrossWorkers(t *testing.T) {
	mk := func(workers int) *Campaign {
		sp := testSpec(workers)
		sp.Telemetry = true
		return Run(sp)
	}
	serial, parallel := mk(1), mk(4)
	for _, r := range serial.Results {
		if r.Err != "" {
			t.Fatalf("cell %s errored: %s", r.Key(), r.Err)
		}
		if len(r.Telemetry) == 0 {
			t.Fatalf("cell %s captured no snapshots", r.Key())
		}
		if len(r.Telemetry) != r.Samples {
			t.Errorf("cell %s: %d snapshots != %d samples", r.Key(), len(r.Telemetry), r.Samples)
		}
	}
	a, b := telemetryJSONL(t, serial), telemetryJSONL(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("telemetry JSONL differs between 1 and 4 workers")
	}
	// The campaign JSONL (now carrying health) must stay identical too.
	if !bytes.Equal(jsonl(t, serial), jsonl(t, parallel)) {
		t.Fatalf("campaign JSONL differs between 1 and 4 workers")
	}
}

// TestTelemetryByteIdentityAcrossShards extends the same guarantee to
// multi-segment cells: their snapshot stream, which counts the WAN
// links too, is byte-identical on 1 and 4 campaign workers.
func TestTelemetryByteIdentityAcrossShards(t *testing.T) {
	mk := func(workers int) *Campaign {
		base := cluster.Defaults(8, 1)
		base.Segments = 2
		base.Sync.F = 1
		sp := Spec{
			Name:         "segment-telemetry",
			Base:         base,
			Points:       NodesAxis(8).Points,
			Seeds:        []uint64{7, 8},
			WarmupS:      2,
			WindowS:      8,
			SampleEveryS: 1,
			DelayProbes:  4,
			Workers:      workers,
			Telemetry:    true,
		}
		return Run(sp)
	}
	one, many := mk(1), mk(4)
	for _, r := range one.Results {
		if r.Err != "" {
			t.Fatalf("cell %s errored: %s", r.Key(), r.Err)
		}
	}
	a, b := telemetryJSONL(t, one), telemetryJSONL(t, many)
	if !bytes.Equal(a, b) {
		t.Fatalf("telemetry JSONL of multi-segment cells differs between 1 and 4 workers")
	}
	// Multi-segment cells must actually count WAN traffic.
	if !bytes.Contains(a, []byte(`"net.wan_tx"`)) {
		t.Fatalf("snapshots missing the WAN link counter:\n%s", a)
	}
}

// TestTelemetryWatchdogFiresOnNaiveTrustFault demonstrates a watchdog
// rule firing on a real fault preset: a naive-trust cell with a 20 ms
// GPS offset fault loses interval containment, the harness mirrors the
// violations into the registry, and the cell's Result carries the
// containment-violation flag — while the validated control stays clean.
func TestTelemetryWatchdogFiresOnNaiveTrustFault(t *testing.T) {
	sp := Spec{
		Name: "watchdog",
		Base: cluster.Defaults(4, 1),
		Points: FaultAxis(2,
			FaultScenario{Kind: gps.FaultOffset, Magnitude: 20e-3, StartS: 6, Trust: false},
			FaultScenario{Kind: gps.FaultOffset, Magnitude: 20e-3, StartS: 6, Trust: true},
		).Points,
		Seeds:        []uint64{7},
		WarmupS:      2,
		WindowS:      20,
		SampleEveryS: 1,
		DelayProbes:  4,
		Workers:      1,
		Telemetry:    true,
	}
	c := Run(sp)
	var validated, naive *Result
	for i := range c.Results {
		r := &c.Results[i]
		if r.Err != "" {
			t.Fatalf("cell %s errored: %s", r.Key(), r.Err)
		}
		if strings.Contains(r.Label, "naive-trust") {
			naive = r
		} else {
			validated = r
		}
	}
	if naive.ContainmentViolations == 0 {
		t.Fatalf("naive-trust offset cell reported no containment violations")
	}
	found := false
	for _, f := range naive.Health {
		if f == "containment-violation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("naive-trust cell health = %v, want containment-violation", naive.Health)
	}
	if len(validated.Health) != 0 {
		t.Fatalf("validated cell unexpectedly flagged: %v", validated.Health)
	}
	// The flag must survive into the CSV artifact's health column.
	var csv bytes.Buffer
	if err := c.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.Contains(csv.String(), "containment-violation") {
		t.Fatalf("CSV missing health flag:\n%s", csv.String())
	}
}

// TestTelemetryArtifactWiring: the combined .telemetry.jsonl appears
// exactly when the spec asks for telemetry.
func TestTelemetryArtifactWiring(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec(2)
	sp.Seeds = []uint64{7}
	sp.Points = NodesAxis(2).Points
	sp.Telemetry = true
	c := Run(sp)
	paths, err := c.WriteArtifacts(dir)
	if err != nil {
		t.Fatalf("WriteArtifacts: %v", err)
	}
	want := filepath.Join(dir, "test.telemetry.jsonl")
	found := false
	for _, p := range paths {
		if p == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("paths %v missing %s", paths, want)
	}
	data, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"cell":0,"t":`)) {
		t.Fatalf("unexpected first line: %.80s", data)
	}

	sp.Telemetry = false
	c2 := Run(sp)
	paths2, err := c2.WriteArtifacts(t.TempDir())
	if err != nil {
		t.Fatalf("WriteArtifacts: %v", err)
	}
	for _, p := range paths2 {
		if strings.Contains(p, "telemetry") {
			t.Fatalf("telemetry artifact written without Spec.Telemetry: %s", p)
		}
	}
	for _, r := range c2.Results {
		if r.Telemetry != nil || r.Health != nil {
			t.Fatalf("cell %s carries telemetry without Spec.Telemetry", r.Key())
		}
	}
}
