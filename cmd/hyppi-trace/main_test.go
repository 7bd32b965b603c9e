package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/cg.trace from the current output")

// TestGolden writes a small CG trace through -o, reads it back with
// trace.Read and pins its bytes; hyppi-sim's -trace golden replays the
// same file. Rewrite deliberately with make golden-cli.
func TestGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cg.trace")
	var stdout, stderr bytes.Buffer
	args := []string{"-kernel", "CG", "-scale", "0.004", "-iterations", "1", "-o", out}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stdout.Len() > 0 {
		t.Errorf("-o run wrote %d bytes to stdout", stdout.Len())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(bytes.NewReader(data))
	if err != nil || len(events) == 0 {
		t.Fatalf("trace.Read of -o output: %d events, %v", len(events), err)
	}
	golden.Check(t, filepath.Join("testdata", "cg.trace"), data, *update)
}

// TestRunOutputErrors: an -o path that cannot be created, or a file whose
// writes fail, is an error rather than a reported success.
func TestRunOutputErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	missing := filepath.Join(t.TempDir(), "missing", "cg.trace")
	if err := run([]string{"-kernel", "CG", "-scale", "0.004", "-o", missing}, &stdout, &stderr); err == nil {
		t.Errorf("uncreatable -o %s: no error", missing)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes")
	}
	if err := run([]string{"-kernel", "CG", "-scale", "0.004", "-o", "/dev/full"}, &stdout, &stderr); err == nil {
		t.Error("-o /dev/full: no error")
	}
}
