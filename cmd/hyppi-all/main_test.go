package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGolden pins the analytic CSVs of a -skip-traces run byte for byte
// (stdout carries timings, so only the files are compared). Rewrite
// deliberately with make golden-cli.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-skip-traces", "-out", dir}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	for _, name := range []string{"fig3_link_clear", "fig5_design_space", "fig8_all_optical"} {
		got, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, filepath.Join("testdata", name+".golden"), got, *update)
		if !strings.Contains(stdout.String(), name+".csv") {
			t.Errorf("stdout does not report %s.csv:\n%s", name, stdout.String())
		}
	}
}
