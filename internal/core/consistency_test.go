package core

import (
	"context"
	"testing"

	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// TestSweepFamiliesAgree pins the sweep families to one another: every
// family that simulates an open-loop (point, pattern, rate) sample — the
// pattern ladder, the energy ladder, a serving cell and the instrumented
// telemetry run — must report the same numbers for it, the pattern and
// energy ladders must place every cell's latency knee alike, and a
// serving trace cell must replay exactly like RunTraceExperiment. The
// cycle cap is low enough that the top rate of the ladder fails to drain,
// so the saturation flag is compared on both sides of the knee.
func TestSweepFamiliesAgree(t *testing.T) {
	ctx := context.Background()
	pool := runner.Config{Workers: 2}
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 4, 4
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	pats, err := traffic.ParsePatterns("uniform,tornado")
	if err != nil {
		t.Fatal(err)
	}
	sc := EnergySweepConfig{
		Rates:    []float64{0.05, 0.1, 0.2, 0.9},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 400, Seed: 5},
		NoC:      noc.DefaultConfig(),
	}
	sc.NoC.MaxCycles = 500

	curves, err := PatternSweep(ctx, meshOnly, points, pats, sc, o, pool)
	if err != nil {
		t.Fatal(err)
	}
	energies, err := EnergySweep(ctx, meshOnly, points, pats, sc, o, pool)
	if err != nil {
		t.Fatal(err)
	}
	var evals []EvalCellResult
	for _, p := range points {
		for _, pat := range pats {
			for _, r := range sc.Rates {
				ev, err := Eval(EvalCell{Point: p, Pattern: pat, Rate: r, Energy: true}, sc, o)
				if err != nil {
					t.Fatalf("%v / %s @ %v: %v", p, pat.Name(), r, err)
				}
				evals = append(evals, ev)
			}
		}
	}
	if len(curves) != len(energies) || len(evals) != len(energies)*len(sc.Rates) {
		t.Fatalf("%d curves, %d energy cells, %d evaluations", len(curves), len(energies), len(evals))
	}
	saturated := 0
	for ci := range energies {
		c, e := curves[ci], energies[ci]
		if c.Point != e.Point || c.Pattern != e.Pattern || c.Kind != e.Kind {
			t.Fatalf("cell %d: pattern sweep %v/%v/%s vs energy sweep %v/%v/%s",
				ci, c.Kind, c.Point, c.Pattern, e.Kind, e.Point, e.Pattern)
		}
		if c.SaturationRate != e.SaturationRate || c.Saturates != e.Saturates || c.AtFloor != e.AtFloor {
			t.Errorf("cell %d: pattern knee (%v, saturates %v, at floor %v) vs energy knee (%v, %v, %v)",
				ci, c.SaturationRate, c.Saturates, c.AtFloor, e.SaturationRate, e.Saturates, e.AtFloor)
		}
		for ri, rate := range sc.Rates {
			lp, ep, ev := c.Points[ri], e.Points[ri], evals[ci*len(sc.Rates)+ri]
			where := func() string { return c.Point.String() + " / " + c.Pattern }
			if lp.Saturated != ep.Saturated || lp.AvgLatencyClks != ep.AvgLatencyClks ||
				lp.P99LatencyClks != ep.P99LatencyClks {
				t.Errorf("%s @ %v: pattern point %+v vs energy point (sat %v, avg %v, p99 %v)",
					where(), rate, lp, ep.Saturated, ep.AvgLatencyClks, ep.P99LatencyClks)
			}
			if ev.Saturated != ep.Saturated {
				t.Errorf("%s @ %v: cell saturated %v, energy point %v", where(), rate, ev.Saturated, ep.Saturated)
			}
			if ep.Saturated {
				saturated++
				continue
			}
			if ev.AvgLatencyClks != ep.AvgLatencyClks || ev.P99LatencyClks != ep.P99LatencyClks ||
				ev.Run != ep.Run || ev.CLEAR != ep.CLEAR {
				t.Errorf("%s @ %v: cell %+v disagrees with energy point %+v", where(), rate, ev, ep)
			}
		}
	}
	if saturated == 0 || saturated == len(evals) {
		t.Fatalf("%d of %d samples saturated; the ladder must straddle the knee", saturated, len(evals))
	}

	// The instrumented run at a drained and at the saturated rate must
	// reproduce the serving cell's run.
	for _, ri := range []int{1, len(sc.Rates) - 1} {
		tc := TelemetrySweepConfig{
			Rate:      sc.Rates[ri],
			Workload:  sc.Workload,
			NoC:       sc.NoC,
			Telemetry: telemetry.Config{SampleRate: 0.2, Seed: 31, ProbeWindowClks: 50},
		}
		tel, err := TelemetrySweep(ctx, points, pats, tc, o, pool)
		if err != nil {
			t.Fatal(err)
		}
		for ci, tr := range tel {
			ev := evals[ci*len(sc.Rates)+ri]
			if tr.Saturated != ev.Saturated || tr.Stats.AvgPacketLatencyClks != ev.AvgLatencyClks ||
				tr.Stats.Cycles != ev.Cycles || tr.Stats.PacketsEjected != ev.Packets {
				t.Errorf("%s @ %v: telemetry (sat %v, avg %v, cycles %d, packets %d) vs cell %+v",
					tr.Label(), tc.Rate, tr.Saturated, tr.Stats.AvgPacketLatencyClks,
					tr.Stats.Cycles, tr.Stats.PacketsEjected, ev)
			}
		}
	}

	// A serving trace cell replays exactly like the trace experiment.
	lu := npb.DefaultConfig(npb.LU)
	lu.GridW, lu.GridH = 4, 4
	lu.Iterations = 1
	lu.Scale = 1.0 / 64
	tsc := sc
	tsc.NoC = noc.DefaultConfig()
	for _, p := range points {
		want, err := RunTraceExperiment(lu, p, o, tsc.NoC)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Eval(EvalCell{Point: p, Trace: &lu}, tsc, o)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Saturated || ev.AvgLatencyClks != want.AvgLatencyClks ||
			ev.P99LatencyClks != want.Stats.P99PacketLatencyClks ||
			ev.Cycles != want.Stats.Cycles || ev.Packets != want.Stats.PacketsEjected {
			t.Errorf("%v: trace cell %+v vs trace experiment (avg %v, cycles %d, packets %d)",
				p, ev, want.AvgLatencyClks, want.Stats.Cycles, want.Stats.PacketsEjected)
		}
	}
}
