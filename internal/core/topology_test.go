package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// kindSweepFixture is the cross-topology analog of sweepFixture: every
// registered kind on a 4×4 grid (the smallest the torus floor admits),
// two patterns, short horizon — fast enough for -race in short mode.
func kindSweepFixture(t *testing.T) ([]topology.Kind, []traffic.Pattern, EnergySweepConfig, Options) {
	t.Helper()
	pats, err := traffic.ParsePatterns("uniform,tornado")
	if err != nil {
		t.Fatal(err)
	}
	sc := EnergySweepConfig{
		Rates:    []float64{0.05, 0.2, 0.5},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 400, Seed: 5},
		NoC:      noc.DefaultConfig(),
	}
	sc.NoC.MaxCycles = 20000
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 4, 4
	return topology.Kinds(), pats, sc, o
}

// plainPoint is the kind-portable design point of a topology sweep: the
// Options' base technology without express links.
func plainPoint(o Options) []DesignPoint {
	return []DesignPoint{{Base: o.Topology.BaseTech, Express: o.Topology.BaseTech, Hops: 0}}
}

// TestTopologyPatternSweepShape drives every registered kind end-to-end
// through the cycle-accurate simulator: the full kind × pattern × load
// matrix must come back in kind-major order with live curves.
func TestTopologyPatternSweepShape(t *testing.T) {
	kinds, pats, sc, o := kindSweepFixture(t)
	results, err := PatternSweep(context.Background(), kinds, plainPoint(o), pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(kinds)*len(pats) {
		t.Fatalf("%d results, want %d", len(results), len(kinds)*len(pats))
	}
	for i, r := range results {
		wantKind, wantPat := kinds[i/len(pats)], pats[i%len(pats)]
		if r.Kind != wantKind || r.Pattern != wantPat.Name() {
			t.Errorf("result %d is %v/%s, want %v/%s", i, r.Kind, r.Pattern, wantKind, wantPat.Name())
		}
		if r.Point.Hops != 0 {
			t.Errorf("result %d uses express point %v; kind sweeps are plain", i, r.Point)
		}
		if len(r.Points) != len(sc.Rates) {
			t.Fatalf("result %d has %d curve points, want %d", i, len(r.Points), len(sc.Rates))
		}
		if r.ZeroLoadLatencyClks() <= 0 && !r.Points[0].Saturated {
			t.Errorf("result %d (%v/%s): zero-load latency %v", i, r.Kind, r.Pattern, r.ZeroLoadLatencyClks())
		}
	}
}

// TestTopologyPatternSweepSerialParallelIdentical extends the determinism
// contract (CHANGES.md, CONCURRENCY) to topology sweeps: the kind × pattern
// matrix is bit-identical for any worker count. Run under -race by make
// race.
func TestTopologyPatternSweepSerialParallelIdentical(t *testing.T) {
	kinds, pats, sc, o := kindSweepFixture(t)
	serial, err := PatternSweep(context.Background(), kinds, plainPoint(o), pats, sc, o,
		runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := PatternSweep(context.Background(), kinds, plainPoint(o), pats, sc, o,
		runner.Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("serial and parallel topology sweeps diverge")
	}
}

func TestTopologyPatternSweepValidation(t *testing.T) {
	kinds, pats, sc, o := kindSweepFixture(t)
	ctx := context.Background()
	if _, err := PatternSweep(ctx, nil, plainPoint(o), pats, sc, o, runner.Config{}); err == nil {
		t.Error("empty kind list must fail")
	}
	if _, err := PatternSweep(ctx, kinds, plainPoint(o), nil, sc, o, runner.Config{}); err == nil {
		t.Error("empty pattern list must fail")
	}
	// A kind that rejects the grid is reported by name before any
	// simulation runs.
	bad := o
	bad.Topology.Width, bad.Topology.Height = 4, 2
	if _, err := PatternSweep(ctx, []topology.Kind{topology.Torus}, plainPoint(bad), pats, sc, bad,
		runner.Config{}); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Errorf("torus on 4x2 should fail by name, got %v", err)
	}
}

// TestExploreKindsShape checks the analytic cross-topology matrix: kinds ×
// plain design points, kind-major, with per-kind structural figures.
func TestExploreKindsShape(t *testing.T) {
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	kinds := topology.Kinds()
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.HyPPI, Express: tech.HyPPI, Hops: 0},
	}
	results, err := ExploreKinds(context.Background(), kinds, points, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(kinds)*len(points) {
		t.Fatalf("%d results, want %d", len(results), len(kinds)*len(points))
	}
	byKind := map[topology.Kind]KindExploration{}
	for i, r := range results {
		if want := kinds[i/len(points)]; r.Kind != want {
			t.Errorf("result %d kind %v, want %v", i, r.Kind, want)
		}
		if r.CLEAR <= 0 || r.AvgLatencyClks <= 0 || r.NumNodes != 64 {
			t.Errorf("result %d degenerate: %+v", i, r)
		}
		if r.Point.Base == tech.Electronic {
			byKind[r.Kind] = r
		}
	}
	// Structural cross-checks: fbfly has the most channels and the widest
	// routers; torus beats mesh on both channels and mean latency.
	if !(byKind[topology.FBFly].Channels > byKind[topology.Torus].Channels &&
		byKind[topology.Torus].Channels > byKind[topology.Mesh].Channels) {
		t.Errorf("channel ordering violated: %+v", byKind)
	}
	if byKind[topology.FBFly].MaxPorts != 15 {
		t.Errorf("8x8 fbfly max ports = %d, want 15", byKind[topology.FBFly].MaxPorts)
	}
	if byKind[topology.Torus].AvgLatencyClks >= byKind[topology.Mesh].AvgLatencyClks {
		t.Errorf("torus latency %v should beat mesh %v (shorter distances)",
			byKind[topology.Torus].AvgLatencyClks, byKind[topology.Mesh].AvgLatencyClks)
	}
	if byKind[topology.FBFly].MeanHops >= byKind[topology.Mesh].MeanHops {
		t.Errorf("fbfly mean hops %v should beat mesh %v",
			byKind[topology.FBFly].MeanHops, byKind[topology.Mesh].MeanHops)
	}
}

// TestExploreKindsSerialParallelIdentical extends the Explore determinism
// contract across the kind axis.
func TestExploreKindsSerialParallelIdentical(t *testing.T) {
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 6, 6
	kinds := topology.Kinds()
	points := []DesignPoint{{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}}
	serial, err := ExploreKinds(context.Background(), kinds, points, o, runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ExploreKinds(context.Background(), kinds, points, o, runner.Config{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("serial and parallel kind explorations diverge")
	}
}

// TestExploreKindsRejectsExpressOnNonMesh pins the error path: express
// design points only make sense on the mesh family.
func TestExploreKindsRejectsExpressOnNonMesh(t *testing.T) {
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	points := []DesignPoint{{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}}
	_, err := ExploreKinds(context.Background(), []topology.Kind{topology.Torus}, points, o, runner.Config{})
	if err == nil || !strings.Contains(err.Error(), "express") {
		t.Errorf("torus express point should fail, got %v", err)
	}
}

// TestMeshKindMatchesLegacyExplore pins backward compatibility: routing a
// design point through the kind axis with Kind = mesh produces the exact
// ExplorationResult of the legacy mesh-only path.
func TestMeshKindMatchesLegacyExplore(t *testing.T) {
	o := DefaultOptions()
	points := []DesignPoint{{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}}
	legacy, err := Explore(points, o)
	if err != nil {
		t.Fatal(err)
	}
	kinded, err := ExploreKinds(context.Background(), []topology.Kind{topology.Mesh}, points, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy[0].Result, kinded[0].Result) {
		t.Fatalf("mesh kind diverges from legacy explore:\n%+v\n%+v", legacy[0].Result, kinded[0].Result)
	}
}
