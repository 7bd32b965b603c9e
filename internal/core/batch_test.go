package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// batchSweepConfig keeps EvalCells tests in the milliseconds range: a
// short Bernoulli horizon on tiny grids.
func batchSweepConfig() EnergySweepConfig {
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

// batchCells is a heterogeneous mix covering pattern/trace, kinds,
// geometries and energy pricing — the shapes a serving batch coalesces.
func batchCells(t *testing.T) []EvalCell {
	t.Helper()
	lu := npb.DefaultConfig(npb.LU)
	lu.GridW, lu.GridH = 4, 4
	return []EvalCell{
		{Width: 4, Height: 4, Point: DesignPoint{Base: tech.Electronic, Express: tech.Electronic},
			Pattern: mustPattern(t, "uniform"), Rate: 0.05},
		{Width: 4, Height: 4, Point: DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
			Pattern: mustPattern(t, "tornado"), Rate: 0.1},
		{Kind: topology.Torus, Width: 4, Height: 4,
			Point:   DesignPoint{Base: tech.Electronic, Express: tech.Electronic},
			Pattern: mustPattern(t, "transpose"), Rate: 0.05, Energy: true},
		{Width: 4, Height: 4, Point: DesignPoint{Base: tech.Electronic, Express: tech.Electronic},
			Trace: &lu},
		{Width: 4, Height: 4, Point: DesignPoint{Base: tech.Electronic, Express: tech.Electronic},
			Pattern: mustPattern(t, "uniform"), Rate: 0.05, Energy: true},
	}
}

// TestEvalCellsBatchedMatchesSerial pins the serving determinism
// contract at the core layer: a coalesced batch on a parallel pool is
// bit-identical to evaluating each cell alone on a serial pool.
func TestEvalCellsBatchedMatchesSerial(t *testing.T) {
	cells := batchCells(t)
	sc := batchSweepConfig()
	o := DefaultOptions()

	batched, err := EvalCells(context.Background(), cells, sc, o, runner.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		solo, err := EvalCells(context.Background(), []EvalCell{c}, sc, o, runner.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[i], solo[0]) {
			t.Errorf("cell %d: batched %+v != solo %+v", i, batched[i], solo[0])
		}
	}
}

// TestEvalCellsErrorIsolation: one unsatisfiable cell (transpose on a
// non-square grid) must not fail its neighbours — its error is captured
// in the result while the rest of the batch answers normally.
func TestEvalCellsErrorIsolation(t *testing.T) {
	cells := []EvalCell{
		{Width: 4, Height: 2, Point: DesignPoint{Base: tech.Electronic, Express: tech.Electronic},
			Pattern: mustPattern(t, "transpose"), Rate: 0.05},
		{Width: 4, Height: 4, Point: DesignPoint{Base: tech.Electronic, Express: tech.Electronic},
			Pattern: mustPattern(t, "uniform"), Rate: 0.05},
	}
	res, err := EvalCells(context.Background(), cells, batchSweepConfig(), DefaultOptions(), runner.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "square") {
		t.Errorf("want square-grid error for cell 0, got %v", res[0].Err)
	}
	if res[1].Err != nil {
		t.Errorf("healthy neighbour failed: %v", res[1].Err)
	}
	if res[1].Packets == 0 || res[1].AvgLatencyClks <= 0 {
		t.Errorf("healthy neighbour produced no traffic: %+v", res[1])
	}
}

// TestEvalCellsPricingFailureIsolated: when pricing a shared fabric
// fails, only the cells that want energy fail; a latency-only cell on the
// same fabric answers exactly as it does alone.
func TestEvalCellsPricingFailureIsolated(t *testing.T) {
	o := DefaultOptions()
	o.DSENT.FlitBits = 0 // the energy model rejects every fabric
	sc := batchSweepConfig()
	latency := EvalCell{Width: 4, Height: 4, Point: DesignPoint{Base: tech.Electronic, Express: tech.Electronic},
		Pattern: mustPattern(t, "uniform"), Rate: 0.05}
	priced := latency
	priced.Energy = true
	solo, err := EvalCells(context.Background(), []EvalCell{latency}, sc, o, runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if solo[0].Err != nil {
		t.Fatalf("latency-only cell fails alone: %v", solo[0].Err)
	}
	batched, err := EvalCells(context.Background(), []EvalCell{priced, latency}, sc, o, runner.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if batched[0].Err == nil {
		t.Error("energy cell must fail on the pricing error")
	}
	if !reflect.DeepEqual(batched[1], solo[0]) {
		t.Errorf("latency-only cell: batched %+v != solo %+v", batched[1], solo[0])
	}
}

// TestEvalCellsValidation covers the remaining per-cell error classes.
func TestEvalCellsValidation(t *testing.T) {
	plain := DesignPoint{Base: tech.Electronic, Express: tech.Electronic}
	uniform := mustPattern(t, "uniform")
	lu := npb.DefaultConfig(npb.LU)
	lu.GridW, lu.GridH = 4, 4
	cells := []EvalCell{
		{Width: 4, Height: 4, Point: plain},                                                    // no source
		{Width: 4, Height: 4, Point: plain, Pattern: uniform},                                  // zero rate
		{Width: 4, Height: 4, Point: plain, Pattern: uniform, Trace: &lu, Rate: 0.1},           // both sources
		{Kind: topology.Torus, Width: 2, Height: 2, Point: plain, Pattern: uniform, Rate: 0.1}, // bad geometry
	}
	res, err := EvalCells(context.Background(), cells, batchSweepConfig(), DefaultOptions(), runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"neither", "positive rate", "both", "torus"}
	for i, want := range wants {
		if res[i].Err == nil || !strings.Contains(res[i].Err.Error(), want) {
			t.Errorf("cell %d: want error containing %q, got %v", i, want, res[i].Err)
		}
	}
	if _, err := EvalCells(context.Background(), nil, batchSweepConfig(), DefaultOptions(), runner.Config{}); err == nil {
		t.Error("empty batch should fail")
	}
}
