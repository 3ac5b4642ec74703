package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ntisim/internal/golden"
	"ntisim/internal/harness"
)

// TestGolden runs every campaign gate exactly as its command line and
// byte-compares the artifact with the committed golden. Each arg
// starting with DIR names a path in the case's temporary directory;
// artifact is the compared file, relative to that directory.
// Regenerate with `make golden`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name, artifact, golden string
		args                   []string
	}{
		{"smoke", "campaign-smoke.jsonl", "smoke.golden.jsonl",
			[]string{"-preset", "smoke", "-seeds", "3", "-q", "-out", "DIR"}},
		{"disciplines", "report.md", "disciplines.report.golden.md",
			[]string{"-preset", "disciplines", "-q", "-report", "DIR/report.md"}},
		{"sharded", "campaign-sharded.jsonl", "sharded.golden.jsonl",
			[]string{"-preset", "sharded", "-q", "-out", "DIR"}},
		{"telemetry", "campaign-sharded.telemetry.jsonl", "sharded.telemetry.golden.jsonl",
			[]string{"-preset", "sharded", "-telemetry", "-q", "-out", "DIR"}},
		{"serving", "campaign-serving.jsonl", "serving.golden.jsonl",
			[]string{"-preset", "serving", "-seeds", "3", "-q", "-out", "DIR"}},
		{"byzantine", "campaign-byzantine.jsonl", "byzantine.golden.jsonl",
			[]string{"-preset", "byzantine", "-q", "-out", "DIR"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = strings.Replace(a, "DIR", dir, 1)
			}
			var stderr bytes.Buffer
			if code := run(args, io.Discard, &stderr); code != 0 {
				t.Fatalf("nticampaign %s: exit %d\n%s", strings.Join(tc.args, " "), code, stderr.String())
			}
			got, err := os.ReadFile(filepath.Join(dir, tc.artifact))
			if err != nil {
				t.Fatal(err)
			}
			golden.Assert(t, filepath.Join("testdata", tc.golden), got)
		})
	}
}

// TestExitCodes pins the usage and configuration errors that stop the
// command before any campaign runs.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-preset", "nope"}, 2, "choices: " + presetChoices()},
		{[]string{"-seeds", "0"}, 2, "-seeds must be >= 1"},
		{[]string{"-trace"}, 1, "-trace needs -out"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("nticampaign %s: exit %d, stderr %q; want exit %d mentioning %q",
				strings.Join(tc.args, " "), code, stderr.String(), tc.code, tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("nticampaign %s: unexpected stdout %q", strings.Join(tc.args, " "), stdout.String())
		}
	}
}

// TestSweepPresets: every sweep-* preset runs exactly its harness axis
// (the points are built, not run), the arrival sweep carries a client
// population, and -list prints every preset.
func TestSweepPresets(t *testing.T) {
	want := map[string]harness.Axis{
		"nodes":      harness.NodesAxis(),
		"period":     harness.PeriodAxis(),
		"load":       harness.LoadAxis(),
		"fosc":       harness.FoscAxis(),
		"f":          harness.FAxis(10),
		"discipline": harness.DisciplineAxis(),
		"clients":    harness.ClientsAxis(10000, 100000, 1000000),
		"arrival":    harness.ArrivalAxis(),
	}
	sweeps := 0
	for name := range presets {
		if strings.HasPrefix(name, "sweep-") {
			sweeps++
		}
	}
	if sweeps != len(want) {
		t.Errorf("%d sweep-* presets, want %d", sweeps, len(want))
	}
	for axis, ax := range want {
		p, ok := presets["sweep-"+axis]
		if !ok {
			t.Errorf("no preset sweep-%s", axis)
			continue
		}
		var got, exp []string
		for _, pt := range p.points() {
			got = append(got, pt.Label)
		}
		for _, pt := range ax.Points {
			exp = append(exp, pt.Label)
		}
		if !slices.Equal(got, exp) {
			t.Errorf("sweep-%s labels %v, want %v", axis, got, exp)
		}
	}
	var spec harness.Spec
	presets["sweep-arrival"].spec(&spec)
	if spec.Base.Serving.Clients != 100000 {
		t.Errorf("sweep-arrival population %d, want 100000", spec.Base.Serving.Clients)
	}

	var stdout bytes.Buffer
	if code := run([]string{"-list"}, &stdout, io.Discard); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	if names := strings.Split(presetChoices(), "|"); !slices.Equal(listed, names) {
		t.Errorf("-list printed presets %v, want %v", listed, names)
	}
}
