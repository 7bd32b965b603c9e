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

// TestPriceSharedRunMatchesEval: a pattern cell, a trace cell and a
// saturated cell on photonic express time alike with their HyPPI twins,
// and each, priced from the twin's run, answers exactly as Eval of that
// cell alone. Electronic express, and another load, do not time alike.
func TestPriceSharedRunMatchesEval(t *testing.T) {
	uniform := mustPattern(t, "uniform")
	lu := npb.DefaultConfig(npb.LU)
	lu.GridW, lu.GridH = 4, 4
	saturating := cellSweepConfig()
	saturating.NoC.MaxCycles = 500
	o := DefaultOptions()
	cases := []struct {
		name string
		cell EvalCell
		sc   EnergySweepConfig
	}{
		{"pattern", EvalCell{Width: 4, Height: 4, Pattern: uniform, Rate: 0.1, Energy: true}, cellSweepConfig()},
		{"trace", EvalCell{Width: 4, Height: 4, Trace: &lu, Energy: true}, cellSweepConfig()},
		{"saturated", EvalCell{Width: 4, Height: 4, Pattern: uniform, Rate: 0.9, Energy: true}, saturating},
	}
	resolve := func(c EvalCell, sc EnergySweepConfig, express tech.Technology) (EvalCell, Timing) {
		t.Helper()
		c.Point = DesignPoint{Base: tech.Electronic, Express: express, Hops: 2}
		tm, err := Resolve(c, sc, o)
		if err != nil {
			t.Fatal(err)
		}
		return c, tm
	}
	for _, tc := range cases {
		hyppi, th := resolve(tc.cell, tc.sc, tech.HyPPI)
		photonic, tp := resolve(tc.cell, tc.sc, tech.Photonic)
		unpriced := tc.cell
		unpriced.Energy = false
		latency, tl := resolve(unpriced, tc.sc, tech.Photonic)
		if !th.Alike(tp) || !th.Alike(tl) {
			t.Fatalf("%s: HyPPI and photonic express do not time alike", tc.name)
		}
		if _, te := resolve(tc.cell, tc.sc, tech.Electronic); th.Alike(te) {
			t.Errorf("%s: electronic express times alike with HyPPI express", tc.name)
		}
		run := th.Simulate()
		if run.sat != (tc.name == "saturated") {
			t.Fatalf("%s: run saturated %v", tc.name, run.sat)
		}
		priced := map[string]EvalCellResult{}
		for name, c := range map[string]struct {
			cell EvalCell
			tm   Timing
		}{"HyPPI": {hyppi, th}, "photonic": {photonic, tp}, "photonic latency": {latency, tl}} {
			got, err := c.tm.Price(run)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, name, err)
			}
			want, err := Eval(c.cell, tc.sc, o)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s priced from the shared run:\n got %+v\nwant %+v", tc.name, name, got, want)
			}
			priced[name] = got
		}
		if !run.sat && priced["HyPPI"].Run == priced["photonic"].Run {
			t.Errorf("%s: HyPPI and photonic express priced alike", tc.name)
		}
	}
	pattern := cases[0]
	_, th := resolve(pattern.cell, pattern.sc, tech.HyPPI)
	pattern.cell.Rate = 0.05
	if _, tp := resolve(pattern.cell, pattern.sc, tech.Photonic); th.Alike(tp) {
		t.Error("two loads time alike")
	}
}
