package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/taskgraph"
	"repro/internal/tech"
	"repro/internal/topology"
)

// taskGraphFixture is a small closed-loop sweep (4×4 grid, three graphs,
// two points) sized to run under -race in short mode.
func taskGraphFixture(t *testing.T) ([]DesignPoint, []taskgraph.Generator, TaskGraphSweepConfig, Options) {
	t.Helper()
	gens, err := taskgraph.ParseGenerators("reduce,ring-allreduce,pipeline")
	if err != nil {
		t.Fatal(err)
	}
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	sc := DefaultTaskGraphSweep()
	sc.Gen = taskgraph.GenConfig{SizeFlits: 8, ComputeClks: 8, Microbatches: 3}
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 4, 4
	return points, gens, sc, o
}

func TestTaskGraphSweepShape(t *testing.T) {
	points, gens, sc, o := taskGraphFixture(t)
	results, err := TaskGraphSweep(context.Background(), points, gens, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(points)*len(gens) {
		t.Fatalf("%d results, want %d", len(results), len(points)*len(gens))
	}
	for i, r := range results {
		wantPoint, wantGen := points[i/len(gens)], gens[i%len(gens)]
		if r.Point != wantPoint || r.Graph != wantGen.Name() {
			t.Errorf("result %d is %v/%s, want %v/%s", i, r.Point, r.Graph, wantPoint, wantGen.Name())
		}
		if r.Messages <= 0 || r.TotalFlits <= 0 {
			t.Errorf("%s: empty graph in result (%d messages, %d flits)", r.Graph, r.Messages, r.TotalFlits)
		}
		if r.MakespanClks <= 0 || r.LowerBoundClks <= 0 {
			t.Errorf("%s @ %v: makespan %d / bound %d, want both > 0",
				r.Graph, r.Point, r.MakespanClks, r.LowerBoundClks)
		}
		if r.MakespanClks < r.LowerBoundClks {
			t.Errorf("%s @ %v: makespan %d below the contention-free bound %d",
				r.Graph, r.Point, r.MakespanClks, r.LowerBoundClks)
		}
		if r.Stretch < 1 {
			t.Errorf("%s @ %v: stretch %v < 1", r.Graph, r.Point, r.Stretch)
		}
	}
}

// TestTaskGraphSweepSerialParallelIdentical enforces the repository's
// determinism contract on the closed-loop task-graph sweep: output is
// bit-identical for Workers 1 and Workers N (run under -race by make
// race). Dependency releases are simulation events, not wall-clock ones,
// so worker interleaving cannot reach them.
func TestTaskGraphSweepSerialParallelIdentical(t *testing.T) {
	points, gens, sc, o := taskGraphFixture(t)
	serial, err := TaskGraphSweep(context.Background(), points, gens, sc, o,
		runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TaskGraphSweep(context.Background(), points, gens, sc, o,
		runner.Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("serial and parallel task-graph sweeps diverge")
	}
}

// kindTaskGraphSweep walks the kind axis the way hyppi-sim does: one
// TaskGraphSweep per kind on the plain fabric, kind-major.
func kindTaskGraphSweep(kinds []topology.Kind, gens []taskgraph.Generator, sc TaskGraphSweepConfig,
	o Options, pool runner.Config) ([]TaskGraphResult, error) {
	var out []TaskGraphResult
	for _, k := range kinds {
		rs, err := TaskGraphSweep(context.Background(), plainPoint(o), gens, sc, o.WithKind(k), pool)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

func TestTopologyTaskGraphSweep(t *testing.T) {
	_, gens, sc, o := taskGraphFixture(t)
	kinds := []topology.Kind{topology.Mesh, topology.Torus}
	serial, err := kindTaskGraphSweep(kinds, gens, sc, o,
		runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(kinds)*len(gens) {
		t.Fatalf("%d results, want %d", len(serial), len(kinds)*len(gens))
	}
	for i, r := range serial {
		if want := kinds[i/len(gens)]; r.Kind != want {
			t.Errorf("result %d kind %v, want %v", i, r.Kind, want)
		}
		if r.MakespanClks < r.LowerBoundClks {
			t.Errorf("%v/%s: makespan %d below bound %d", r.Kind, r.Graph, r.MakespanClks, r.LowerBoundClks)
		}
	}
	parallel, err := kindTaskGraphSweep(kinds, gens, sc, o,
		runner.Config{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("serial and parallel topology task-graph sweeps diverge")
	}
}

// TestTaskGraphCongestionFeedback pins the acceptance criterion for
// closed-loop injection: an uncongested serial schedule (single-microbatch
// pipeline — one message in flight at any time) completes exactly at the
// contention-free critical path, while an all-pairs MoE exchange on the
// plain electronic mesh is stretched measurably past its bound by the
// congestion its own schedule creates.
func TestTaskGraphCongestionFeedback(t *testing.T) {
	sc := DefaultTaskGraphSweep()
	sc.Gen = taskgraph.GenConfig{SizeFlits: 16, ComputeClks: 10, Microbatches: 1}
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	electronic := []DesignPoint{{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}}

	pipe, err := taskgraph.ParseGenerators("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	moe, err := taskgraph.ParseGenerators("moe-alltoall")
	if err != nil {
		t.Fatal(err)
	}

	serial, err := TaskGraphSweep(context.Background(), electronic, pipe, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r := serial[0]; r.MakespanClks != r.LowerBoundClks {
		t.Errorf("uncongested pipeline: makespan %d != contention-free bound %d (stretch %v)",
			r.MakespanClks, r.LowerBoundClks, r.Stretch)
	}

	congested, err := TaskGraphSweep(context.Background(), electronic, moe, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r := congested[0]; r.Stretch < 1.2 {
		t.Errorf("moe-alltoall on the electronic mesh: stretch %v (makespan %d, bound %d) — expected clear congestion feedback",
			r.Stretch, r.MakespanClks, r.LowerBoundClks)
	}
}

// TestTaskGraphSmoke is the make taskgraph-smoke gate: the allreduce and
// MoE operator graphs on the paper's 8×8 electronic+HyPPI hybrid must
// complete, beat their contention-free bounds' ordering invariants, and
// stay inside a CI-container wall budget.
func TestTaskGraphSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("taskgraph smoke skipped in -short mode")
	}
	gens, err := taskgraph.ParseGenerators("ring-allreduce,tree-allreduce,moe-alltoall")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	sc := DefaultTaskGraphSweep()
	points := []DesignPoint{{Base: tech.Electronic, Express: tech.HyPPI, Hops: 5}}

	start := time.Now()
	results, err := TaskGraphSweep(t.Context(), points, gens, sc, o, runner.Config{Workers: 1})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	const wallBudget = 120 * time.Second
	if elapsed > wallBudget {
		t.Errorf("taskgraph smoke took %v, budget %v", elapsed, wallBudget)
	}
	for _, r := range results {
		if r.MakespanClks < r.LowerBoundClks || r.Stretch < 1 {
			t.Errorf("%s: makespan %d under bound %d", r.Graph, r.MakespanClks, r.LowerBoundClks)
		}
		t.Logf("%s @ %s: makespan %d clks (bound %d, stretch %.2f, %d messages) in %v",
			r.Graph, r.Point.Label(r.Kind), r.MakespanClks, r.LowerBoundClks, r.Stretch, r.Messages, elapsed)
	}
}

// TestTaskGraphSweepValidation: structural misuse fails loudly.
func TestTaskGraphSweepValidation(t *testing.T) {
	points, gens, sc, o := taskGraphFixture(t)
	ctx := context.Background()
	if _, err := TaskGraphSweep(ctx, points, nil, sc, o, runner.Config{}); err == nil {
		t.Error("sweep with no graphs succeeded")
	}
	bad := sc
	bad.Gen.SizeFlits = 0
	if _, err := TaskGraphSweep(ctx, points, gens, bad, o, runner.Config{}); err == nil {
		t.Error("sweep with invalid GenConfig succeeded")
	}
}
