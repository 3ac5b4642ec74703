package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ntisim/internal/golden"
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
