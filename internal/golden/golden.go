// Package golden pins command output to checked-in golden files: a test
// compares what it produced with the file byte for byte, or rewrites the
// file when run with its package's -update flag (see make golden-cli).
package golden

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// Check compares got with the golden file at path, reporting the first
// differing line, or rewrites the file when update is set.
func Check(t testing.TB, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (rewrite deliberately with -update): %s", path, firstDiff(got, want))
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if i >= len(g) || i >= len(w) || !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "identical lines, different bytes"
}
