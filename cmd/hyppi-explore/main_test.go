package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestUsageListsRegisteredNames: adding a topology kind to the registry
// must surface it in -h, not leave the usage text stale.
func TestUsageListsRegisteredNames(t *testing.T) {
	for _, name := range topology.Names() {
		if !strings.Contains(topologyUsage, string(name)) {
			t.Errorf("-topology usage misses registered kind %q: %s", name, topologyUsage)
		}
	}
}

// TestGolden pins the analytic report byte for byte: Tables III/IV,
// Fig. 5, the optional cross-topology table, then Table VI and Fig. 8.
// Rewrite deliberately with make golden-cli.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"topology", []string{"-topology", "all"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(c.args, &stdout, &stderr); err != nil {
				t.Fatalf("run %v: %v\n%s", c.args, err, stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", c.name+".golden"), stdout.Bytes(), *update)
		})
	}
}
