package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/topology"
	"repro/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestUsageListsRegisteredNames: adding a pattern or topology kind to the
// registries must surface it in -h, not leave the usage text stale.
func TestUsageListsRegisteredNames(t *testing.T) {
	for _, name := range traffic.Names() {
		if !strings.Contains(patternUsage, name) {
			t.Errorf("query pattern usage misses registered pattern %q: %s", name, patternUsage)
		}
	}
	for _, name := range topology.Names() {
		if !strings.Contains(topologyUsage, string(name)) {
			t.Errorf("query topology usage misses registered kind %q: %s", name, topologyUsage)
		}
	}
}

// TestGolden drives stdio mode in-process over testdata/queries.jsonl on a
// 4×4 grid — a pattern query, the same query again (answered from the
// cache: -in-flight 1 finishes the first before the second is read), a
// kernel query and a rejected line — and pins the response lines byte for
// byte. Rewrite deliberately with make golden-cli.
func TestGolden(t *testing.T) {
	in, err := os.Open(filepath.Join("testdata", "queries.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in-flight", "1", "-workers", "1"}, in, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	golden.Check(t, filepath.Join("testdata", "stdio.golden"), stdout.Bytes(), *update)
}

// TestRunFlagErrors: an unknown flag or a malformed value fails before
// anything is served, and -h is not an error.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-queue", "many"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, strings.NewReader(""), &stdout, &stderr); err == nil || stdout.Len() > 0 {
			t.Errorf("run %q: err %v, stdout %q; want a flag error and no output", args, err, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, strings.NewReader(""), &stdout, &stderr); err != nil ||
		!strings.Contains(stderr.String(), "-in-flight") {
		t.Errorf("-h: err %v, usage %q", err, stderr.String())
	}
}
