package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder captures the failure Assert reports instead of failing the
// test that drives it.
type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) { r.msg = fmt.Sprintf(format, args...) }

func TestAssertExplainsMismatch(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	path := filepath.Join(tmp, "case.golden.jsonl")
	if err := os.WriteFile(path, []byte("a\nb\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var r recorder
	Assert(&r, path, []byte("a\nb\nc\n"))
	if r.msg != "" {
		t.Fatalf("identical bytes reported a failure: %s", r.msg)
	}

	got := []byte("a\nB\nc\nd\n")
	Assert(&r, path, got)
	gotPath := filepath.Join(tmp, "case.golden.jsonl.got")
	for _, want := range []string{
		"first difference at line 2 (want 3 lines, got 4)",
		`want: "b\n"`,
		` got: "B\n"`,
		"diff -u " + path + " " + gotPath,
	} {
		if !strings.Contains(r.msg, want) {
			t.Errorf("failure message lacks %q:\n%s", want, r.msg)
		}
	}
	if b, err := os.ReadFile(gotPath); err != nil || string(b) != string(got) {
		t.Errorf(".got file = %q, %v; want the new output", b, err)
	}
}
