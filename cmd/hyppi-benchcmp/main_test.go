package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// The fixtures are two small `go test -bench` outputs: old.txt a 1-CPU run
// without the -GOMAXPROCS suffix, new.txt a 2-CPU run whose names carry
// "-2". TopologyKinds/mesh grows 560 → 566 allocs/op (+1.07%), the one
// allocs/op increase; one benchmark is retired and one added.
const (
	oldFixture = "testdata/old.txt"
	newFixture = "testdata/new.txt"
)

// TestGolden drives run in-process and pins stdout, stderr and the
// returned error of every mode byte for byte (the -json case pins the
// JSON file instead of stdout). Rewrite deliberately with make golden-cli.
func TestGolden(t *testing.T) {
	jsonOut := filepath.Join(t.TempDir(), "cmp.json")
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"single", []string{oldFixture}, 0},
		{"compare", []string{oldFixture, newFixture}, 0},
		{"allocs_pass", []string{"-fail-allocs", "2", oldFixture, newFixture}, 0},
		{"allocs_fail", []string{"-fail-allocs", "1", oldFixture, newFixture}, 1},
		{"threshold_fail", []string{"-threshold", "50", "-units", "ns/op", oldFixture, newFixture}, 1},
		{"json", []string{"-json", jsonOut, oldFixture, newFixture}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if code := exitCode(err); code != c.code {
				t.Fatalf("run %v: exit %d (%v), want %d", c.args, code, err, c.code)
			}
			got := stdout.Bytes()
			if c.name == "json" {
				data, rerr := os.ReadFile(jsonOut)
				if rerr != nil {
					t.Fatal(rerr)
				}
				got = data
			}
			if stderr.Len() > 0 {
				got = append(append(got, "-- stderr --\n"...), stderr.Bytes()...)
			}
			if err != nil {
				got = append(got, "-- error --\n"+err.Error()+"\n"...)
			}
			golden.Check(t, filepath.Join("testdata", c.name+".golden"), got, *update)
		})
	}
}

// TestRunUsageErrors: bad argument counts, unknown flags and unreadable
// or unwritable files are usage or I/O errors (exit 2), never gate
// failures, and -h is not an error.
func TestRunUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.txt")
	unwritable := filepath.Join(t.TempDir(), "no", "cmp.json")
	for _, args := range [][]string{
		nil,
		{oldFixture, newFixture, oldFixture},
		{"-bogus", oldFixture},
		{missing},
		{oldFixture, missing},
		{"-json", unwritable, oldFixture, newFixture},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if code := exitCode(err); code != 2 || errors.Is(err, errGate) {
			t.Errorf("run %q: exit %d (%v), want a usage or I/O error", args, code, err)
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err != nil || !strings.Contains(stderr.String(), "-fail-allocs") {
		t.Errorf("-h: err %v, usage %q", err, stderr.String())
	}
}
