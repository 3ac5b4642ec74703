package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"ntisim/internal/golden"
)

// TestGolden pins the JSONL trace of one CSP flight on the two-node
// system byte for byte. Regenerate with `make golden`.
func TestGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("ntitrace -json: exit %d\n%s", code, stderr.String())
	}
	golden.Assert(t, filepath.Join("testdata", "smoke.trace.golden.jsonl"), stdout.Bytes())
}
