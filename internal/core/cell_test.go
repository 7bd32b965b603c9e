package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/npb"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// cellSweepConfig keeps Eval tests in the milliseconds range: a
// short Bernoulli horizon on tiny grids.
func cellSweepConfig() EnergySweepConfig {
	sc := DefaultEnergySweep()
	sc.Workload.Cycles = 400
	return sc
}

func mustPattern(t *testing.T, name string) traffic.Pattern {
	t.Helper()
	p, err := traffic.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEvalCellsValidation covers the per-cell error classes: each bad
// cell fails with its own named cause, prefixed by its design point.
func TestEvalCellsValidation(t *testing.T) {
	plain := DesignPoint{Base: tech.Electronic, Express: tech.Electronic}
	uniform := mustPattern(t, "uniform")
	lu := npb.DefaultConfig(npb.LU)
	lu.GridW, lu.GridH = 4, 4
	cases := []struct {
		cell EvalCell
		want string
	}{
		{EvalCell{Width: 4, Height: 4, Point: plain}, "neither"},
		{EvalCell{Width: 4, Height: 4, Point: plain, Pattern: uniform}, "positive rate"},
		{EvalCell{Width: 4, Height: 4, Point: plain, Pattern: uniform, Trace: &lu, Rate: 0.1}, "both"},
		{EvalCell{Kind: topology.Torus, Width: 2, Height: 2, Point: plain, Pattern: uniform, Rate: 0.1}, "torus"},
	}
	for i, tc := range cases {
		_, err := Eval(tc.cell, cellSweepConfig(), DefaultOptions())
		if err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.HasPrefix(err.Error(), "core: "+plain.String()+": ") {
			t.Errorf("cell %d: want error containing %q, got %v", i, tc.want, err)
		}
	}
	bad := cellSweepConfig()
	bad.Workload.Cycles = 0
	if _, err := Eval(EvalCell{Width: 4, Height: 4, Point: plain, Pattern: uniform, Rate: 0.1}, bad, DefaultOptions()); err == nil {
		t.Error("a zero-cycle workload should fail")
	}
}

// TestEvalCellsErrorIsolation: a cell that fails (transpose needs a
// square grid) leaves the shared network cache as it found it, so a
// healthy cell evaluated next under the same Options answers exactly as
// it does alone.
func TestEvalCellsErrorIsolation(t *testing.T) {
	plain := DesignPoint{Base: tech.Electronic, Express: tech.Electronic}
	bad := EvalCell{Width: 4, Height: 2, Point: plain, Pattern: mustPattern(t, "transpose"), Rate: 0.05}
	good := EvalCell{Width: 4, Height: 4, Point: plain, Pattern: mustPattern(t, "uniform"), Rate: 0.05}
	solo, err := Eval(good, cellSweepConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	if _, err := Eval(bad, cellSweepConfig(), o); err == nil || !strings.Contains(err.Error(), "square") {
		t.Errorf("want square-grid error, got %v", err)
	}
	after, err := Eval(good, cellSweepConfig(), o)
	if err != nil {
		t.Fatalf("healthy cell failed after a failing one: %v", err)
	}
	if after.Packets == 0 || after.AvgLatencyClks <= 0 {
		t.Errorf("healthy cell produced no traffic: %+v", after)
	}
	if !reflect.DeepEqual(after, solo) {
		t.Errorf("healthy cell after a failure %+v != alone %+v", after, solo)
	}
}
