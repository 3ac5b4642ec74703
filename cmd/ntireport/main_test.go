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

// TestGolden renders the committed 3-seed smoke campaign golden and
// byte-compares the report with its own golden. The campaign golden is
// gated byte for byte by nticampaign's TestGolden, so this is the same
// report a fresh smoke run renders. Regenerate with `make golden`.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join("..", "nticampaign", "testdata", "smoke.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "campaign-smoke.jsonl"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "report.md")
	var stderr bytes.Buffer
	if code := run([]string{"-in", dir, "-out", out}, io.Discard, &stderr); code != 0 {
		t.Fatalf("ntireport: exit %d\n%s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden.Assert(t, filepath.Join("testdata", "smoke.report.golden.md"), got)
}

func TestMissingInIsUsageError(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(nil, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "-in is required") {
		t.Fatalf("ntireport without -in: exit %d, stderr %q; want exit 2", code, stderr.String())
	}
}
