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
// "-2". Two benchmarks allocate more: Fig5DesignSpace 85438 → 86720
// allocs/op (+1.5%, +1282 allocs), which fails a 1% gate and passes a 2%
// one, and TopologyKinds/mesh 560 → 566 (+1.07%, +6 allocs), which the
// absolute slack lets through at either. One benchmark is retired and one
// added.
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

// TestAllocsRegressed pins the -fail-allocs rule: growth fails only past
// both the percentage of the baseline and the absolute slack, so small
// counts ride out scheduling noise and large ones keep the percentage.
func TestAllocsRegressed(t *testing.T) {
	cases := []struct {
		old, new, pct float64
		want          bool
	}{
		{347, 347, 1, false},                    // unchanged
		{347, 300, 0, false},                    // fewer allocs never fail
		{347, 347 + allocSlack, 1, false},       // the slack is inclusive
		{347, 347 + allocSlack + 1, 1, true},    // just past the slack
		{347, 1675, 1, true},                    // the kernel's per-run garbage back
		{347, 347 + allocSlack + 1, 100, false}, // within a generous percentage
		{3257, 3287, 0, false},                  // ServeThroughput's scheduling spread
		{85438, 85438 + 854, 1, false},          // within 1% of a large count
		{85438, 85438 + 855, 1, true},           // past 1% and past the slack
		{85438, 86720, 2, false},                // the fixture's Fig5DesignSpace at 2%
		{0, allocSlack + 1, 0, true},            // from zero: only the slack applies
		{0, allocSlack, 1e9, false},
	}
	for _, c := range cases {
		if got := allocsRegressed(c.old, c.new, c.pct); got != c.want {
			t.Errorf("allocsRegressed(%v, %v, %v%%) = %v, want %v", c.old, c.new, c.pct, got, c.want)
		}
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
