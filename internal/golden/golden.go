// Package golden is the one golden-file gate: Assert, plus go test -update.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from this run")

// Assert fails t unless got equals the golden at path byte for byte,
// naming the first differing line and saving got under os.TempDir().
func Assert(t testing.TB, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if *update {
		want, err = got, os.WriteFile(path, got, 0o644)
	}
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotPath := filepath.Join(os.TempDir(), filepath.Base(path)+".got")
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		gotPath = err.Error()
	}
	nl := []byte("\n")
	w, g, i := bytes.SplitAfter(want, nl), bytes.SplitAfter(got, nl), 0
	for bytes.Equal(w[i], g[i]) { // stops inside both: want != got
		i++
	}
	t.Fatalf("%s: first difference at line %d (want %d lines, got %d)\nwant: %.300q\n got: %.300q\ndiff -u %s %s  (regenerate with -update)",
		path, i+1, bytes.Count(want, nl), bytes.Count(got, nl), w[i], g[i], path, gotPath)
}
