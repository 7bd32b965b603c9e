package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// meshOnly is the kind axis of the mesh design-point sweeps.
var meshOnly = []topology.Kind{topology.Mesh}

// sweepFixture is a deliberately tiny sweep (4×4 grid, three patterns,
// three rates, short horizon) so the determinism test can run under
// -race in short mode.
func sweepFixture(t *testing.T) ([]DesignPoint, []traffic.Pattern, EnergySweepConfig, Options) {
	t.Helper()
	pats, err := traffic.ParsePatterns("uniform,tornado,bitcomp")
	if err != nil {
		t.Fatal(err)
	}
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	sc := EnergySweepConfig{
		Rates:    []float64{0.05, 0.2, 0.5},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 400, Seed: 5},
		NoC:      noc.DefaultConfig(),
	}
	sc.NoC.MaxCycles = 20000
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 4, 4
	return points, pats, sc, o
}

func TestPatternSweepShape(t *testing.T) {
	points, pats, sc, o := sweepFixture(t)
	results, err := PatternSweep(context.Background(), meshOnly, points, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(points)*len(pats) {
		t.Fatalf("%d results, want %d", len(results), len(points)*len(pats))
	}
	for i, r := range results {
		wantPoint, wantPat := points[i/len(pats)], pats[i%len(pats)]
		if r.Point != wantPoint || r.Pattern != wantPat.Name() {
			t.Errorf("result %d is %v/%s, want %v/%s",
				i, r.Point, r.Pattern, wantPoint, wantPat.Name())
		}
		if len(r.Curve) != len(sc.Rates) {
			t.Fatalf("result %d has %d curve points, want %d", i, len(r.Curve), len(sc.Rates))
		}
		for j, p := range r.Curve {
			if p.InjectionRate != sc.Rates[j] {
				t.Errorf("result %d point %d at rate %v, want %v", i, j, p.InjectionRate, sc.Rates[j])
			}
		}
		rate, atFloor, ok := noc.DetectSaturation(r.Curve)
		if rate != r.SaturationRate || atFloor != r.AtFloor || ok != r.Saturates {
			t.Errorf("result %d knee (%v,%v,%v) disagrees with DetectSaturation (%v,%v,%v)",
				i, r.SaturationRate, r.AtFloor, r.Saturates, rate, atFloor, ok)
		}
		if r.ZeroLoadLatencyClks() <= 0 && !r.Curve[0].Saturated {
			t.Errorf("result %d zero-load latency %v", i, r.ZeroLoadLatencyClks())
		}
	}
}

// TestPatternSweepSerialParallelIdentical enforces the repository's
// determinism contract on the pattern×point saturation sweep: output is
// bit-identical for Workers 1 and Workers N (run under -race by make
// race).
func TestPatternSweepSerialParallelIdentical(t *testing.T) {
	points, pats, sc, o := sweepFixture(t)
	serial, err := PatternSweep(context.Background(), meshOnly, points, pats, sc, o,
		runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := PatternSweep(context.Background(), meshOnly, points, pats, sc, o,
		runner.Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("serial and parallel pattern sweeps diverge")
	}
}

func TestPatternSweepValidation(t *testing.T) {
	points, pats, sc, o := sweepFixture(t)
	ctx := context.Background()
	if _, err := PatternSweep(ctx, meshOnly, points, nil, sc, o, runner.Config{}); err == nil {
		t.Error("empty pattern list must fail")
	}
	bad := sc
	bad.Rates = nil
	if _, err := PatternSweep(ctx, meshOnly, points, pats, bad, o, runner.Config{}); err == nil {
		t.Error("empty rate grid must fail")
	}
	bad = sc
	bad.Rates = []float64{0.2, 0.1}
	if _, err := PatternSweep(ctx, meshOnly, points, pats, bad, o, runner.Config{}); err == nil {
		t.Error("non-ascending rates must fail")
	}
	// A pattern precondition failure is reported with the design point
	// and pattern name.
	bitrev, err := traffic.Lookup("bitrev")
	if err != nil {
		t.Fatal(err)
	}
	o.Topology.Width, o.Topology.Height = 3, 3
	if _, err := PatternSweep(ctx, meshOnly, points, []traffic.Pattern{bitrev}, sc, o,
		runner.Config{}); err == nil {
		t.Error("bitrev on a 9-node grid must fail")
	}
}

// TestPatternSweepExpressHelps: on tornado traffic the HyPPI express
// hybrid must not saturate earlier than the plain mesh — the structural
// claim the pattern subsystem exists to probe.
func TestPatternSweepExpressHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("8×8 tornado sweep runs in full mode")
	}
	pats, err := traffic.ParsePatterns("tornado")
	if err != nil {
		t.Fatal(err)
	}
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	sc := DefaultEnergySweep()
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	results, err := PatternSweep(context.Background(), meshOnly, points, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mesh, hybrid := results[0], results[1]
	meshSat, hybridSat := mesh.SaturationRate, hybrid.SaturationRate
	if !mesh.Saturates {
		meshSat = sc.Rates[len(sc.Rates)-1] + 1
	}
	if !hybrid.Saturates {
		hybridSat = sc.Rates[len(sc.Rates)-1] + 1
	}
	if hybridSat < meshSat {
		t.Errorf("hybrid saturates at %v before mesh at %v under tornado", hybridSat, meshSat)
	}
}
