package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder captures Check's failures without failing the enclosing test.
type recorder struct {
	testing.TB
	errors []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

// TestCheckUpdateThenMatch: -update writes the file, after which the same
// bytes match and different bytes are reported at the first bad line.
func TestCheckUpdateThenMatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.golden")
	Check(t, path, []byte("a\nb\n"), true)
	if b, err := os.ReadFile(path); err != nil || string(b) != "a\nb\n" {
		t.Fatalf("update wrote %q, %v", b, err)
	}
	Check(t, path, []byte("a\nb\n"), false)

	r := &recorder{TB: t}
	Check(r, path, []byte("a\nc\n"), false)
	if len(r.errors) != 1 || !strings.Contains(r.errors[0], "line 2:") {
		t.Fatalf("drift reports %q, want one naming line 2", r.errors)
	}
}

func TestFirstDiff(t *testing.T) {
	for _, c := range []struct{ got, want, line string }{
		{"a\nb\n", "a\nc\n", "line 2:"},
		{"a\n", "a\nb\n", "line 2:"},
		{"x", "a\nb", "line 1:"},
	} {
		if d := firstDiff([]byte(c.got), []byte(c.want)); !strings.HasPrefix(d, c.line) {
			t.Errorf("firstDiff(%q, %q) = %q, want prefix %q", c.got, c.want, d, c.line)
		}
	}
}
