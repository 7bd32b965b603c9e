package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/taskgraph"
	"repro/internal/topology"
	"repro/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestUsageListsRegisteredNames: adding a pattern, topology kind or
// task-graph generator to the registries must surface it in -h, not
// leave the usage text stale.
func TestUsageListsRegisteredNames(t *testing.T) {
	for _, name := range traffic.Names() {
		if !strings.Contains(patternUsage, name) {
			t.Errorf("-pattern usage misses registered pattern %q: %s", name, patternUsage)
		}
	}
	for _, name := range topology.Names() {
		if !strings.Contains(topologyUsage, string(name)) {
			t.Errorf("-topology usage misses registered kind %q: %s", name, topologyUsage)
		}
	}
	for _, name := range taskgraph.Names() {
		if !strings.Contains(taskgraphUsage, name) {
			t.Errorf("-taskgraph usage misses registered generator %q: %s", name, taskgraphUsage)
		}
	}
}

// TestGolden drives every mode in-process on small inputs and pins its
// stdout byte for byte. The telemetry cases' trace path is written as
// TRACE_OUT in the golden files, and the Chrome trace JSON the telemetry
// case writes there (~430 kB) is pinned by its SHA-256 and length in
// telemetry_trace.golden. Rewrite deliberately with make golden-cli.
func TestGolden(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	cases := []struct {
		name string
		args []string
	}{
		{"pattern", []string{"-pattern", "uniform,tornado", "-grid", "4x4"}},
		{"pattern_csv", []string{"-pattern", "uniform,tornado", "-grid", "4x4", "-csv"}},
		{"energy", []string{"-pattern", "uniform,tornado", "-energy", "-grid", "4x4"}},
		{"energy_csv", []string{"-pattern", "uniform,tornado", "-energy", "-grid", "4x4", "-csv"}},
		{"faults", []string{"-pattern", "uniform", "-faults", "-variant", "baseline", "-grid", "4x4"}},
		{"faults_csv", []string{"-pattern", "uniform", "-faults", "-variant", "baseline", "-grid", "4x4", "-csv"}},
		{"taskgraph", []string{"-taskgraph", "all", "-topology", "all", "-csv", "-grid", "4x4"}},
		{"taskgraph_table", []string{"-taskgraph", "all", "-topology", "all", "-grid", "4x4"}},
		{"telemetry", []string{"-pattern", "uniform", "-trace-out", traceOut, "-grid", "4x4"}},
		{"telemetry_csv", []string{"-pattern", "uniform", "-trace-out", traceOut, "-grid", "4x4", "-csv"}},
		{"kernel", []string{"-kernel", "LU", "-scale", "0.004", "-iterations", "1"}},
		{"trace", []string{"-trace", "../hyppi-trace/testdata/cg.trace"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(c.args, &stdout, &stderr); err != nil {
				t.Fatalf("run %v: %v\n%s", c.args, err, stderr.String())
			}
			got := bytes.ReplaceAll(stdout.Bytes(), []byte(traceOut), []byte("TRACE_OUT"))
			golden.Check(t, filepath.Join("testdata", c.name+".golden"), got, *update)
			if c.name == "telemetry" {
				data, err := os.ReadFile(traceOut)
				if err != nil || !json.Valid(data) {
					t.Fatalf("-trace-out did not write valid JSON: %v", err)
				}
				digest := fmt.Sprintf("sha256 %x bytes %d\n", sha256.Sum256(data), len(data))
				golden.Check(t, filepath.Join("testdata", "telemetry_trace.golden"), []byte(digest), *update)
			}
		})
	}
}

// TestRunRejectsIgnoredFlags: a mode-specific flag given to a mode that
// would ignore it is an error naming the flag and the mode, raised before
// any simulation runs.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	cases := []struct {
		args string
		want string
	}{
		{"-taskgraph reduce -energy", "-energy in -taskgraph mode"},
		{"-taskgraph reduce -pattern uniform", "-pattern in -taskgraph mode"},
		{"-pattern uniform -energy -faults", "-energy in -pattern -faults mode"},
		{"-pattern uniform -trace-out t.json -energy", "-energy in -pattern -trace-out mode"},
		{"-pattern uniform -trace-out t.json -faults", "-faults in -pattern -trace-out mode"},
		{"-pattern uniform -variant baseline", "-variant in -pattern mode"},
		{"-pattern uniform -energy -probe-window 100", "-probe-window in -pattern -energy mode"},
		{"-pattern uniform -kernel LU", "-kernel in -pattern mode"},
		{"-pattern uniform -trace t.trace", "-trace in -pattern mode"},
		{"-energy", "-energy in -kernel mode"},
		{"-faults", "-faults in -kernel mode"},
		{"-trace-out t.json", "-trace-out in -kernel mode"},
		{"-kernel LU -grid 4x4", "-grid in -kernel mode"},
		{"-kernel LU -csv", "-csv in -kernel mode"},
		{"-trace t.trace -kernel LU", "-kernel in -trace mode"},
		{"-trace t.trace -scale 0.1", "-scale in -trace mode"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields(c.args), &stdout, &stderr)
		if !errors.Is(err, errIgnoredFlag) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run %q: err = %v, want %q", c.args, err, c.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("run %q wrote output before rejecting: %q", c.args, stdout.String())
		}
	}
}

// TestRunFlagErrors: a negative probe window is rejected; a switch given
// as false counts as not given and conflicts with nothing.
func TestRunFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(strings.Fields("-pattern uniform -trace-out t.json -probe-window -5"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-probe-window") {
		t.Errorf("-probe-window -5: err = %v, want a -probe-window error", err)
	}
	args := strings.Fields("-kernel LU -scale 0.004 -iterations 1 -csv=false -energy=false")
	if err := run(args, &stdout, &stderr); err != nil {
		t.Errorf("run %q: %v", args, err)
	}
}

// TestListFlagsDropRepeats: a repeated -variant keeps its first
// occurrence ("baseline" and the empty registry name are one variant), and
// a repeated -pattern simulates and prints each cell once.
func TestListFlagsDropRepeats(t *testing.T) {
	got, err := parseVariants("modetector,baseline,modetector,")
	if want := []string{"modetector", ""}; err != nil || !slices.Equal(got, want) {
		t.Errorf("parseVariants = %q, %v; want %q", got, err, want)
	}
	var once, twice, stderr bytes.Buffer
	if err := run(strings.Fields("-pattern uniform -grid 4x4"), &once, &stderr); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.Fields("-pattern uniform,uniform -grid 4x4"), &twice, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once.Bytes(), twice.Bytes()) {
		t.Errorf("-pattern uniform,uniform differs from -pattern uniform:\n%s", twice.String())
	}
}
