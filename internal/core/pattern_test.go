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
		if len(r.Points) != len(sc.Rates) {
			t.Fatalf("result %d has %d curve points, want %d", i, len(r.Points), len(sc.Rates))
		}
		for j, p := range r.Points {
			if p.Rate != sc.Rates[j] {
				t.Errorf("result %d point %d at rate %v, want %v", i, j, p.Rate, sc.Rates[j])
			}
		}
		rate, atFloor, ok := detectSaturation(r.Points)
		if rate != r.SaturationRate || atFloor != r.AtFloor || ok != r.Saturates {
			t.Errorf("result %d knee (%v,%v,%v) disagrees with detectSaturation (%v,%v,%v)",
				i, r.SaturationRate, r.AtFloor, r.Saturates, rate, atFloor, ok)
		}
		if r.ZeroLoadLatencyClks() <= 0 && !r.Points[0].Saturated {
			t.Errorf("result %d zero-load latency %v", i, r.ZeroLoadLatencyClks())
		}
	}
}

// TestDetectSaturation pins the ladder's latency-knee rule on hand-made
// curves: the floor marker, interior knees and the strict 3× threshold.
func TestDetectSaturation(t *testing.T) {
	cases := []struct {
		name    string
		points  []EnergyPoint
		rate    float64
		atFloor bool
		ok      bool
	}{
		{"empty", nil, 0, false, false},
		// A curve saturated from its lowest rate reports that rate WITH
		// the at-floor marker: the knee lies at or below the sweep floor,
		// so the rate is an upper bound, not a measured capacity.
		{"baseline saturated",
			[]EnergyPoint{{Rate: 0.1, Saturated: true}}, 0.1, true, true},
		{"flat curve never saturates", []EnergyPoint{
			{Rate: 0.1, AvgLatencyClks: 20},
			{Rate: 0.2, AvgLatencyClks: 22},
			{Rate: 0.3, AvgLatencyClks: 25},
		}, 0, false, false},
		// An interior knee is a measurement, not a floor artifact.
		{"latency knee at 3x zero-load", []EnergyPoint{
			{Rate: 0.1, AvgLatencyClks: 20},
			{Rate: 0.2, AvgLatencyClks: 45},
			{Rate: 0.3, AvgLatencyClks: 61}, // > 3×20
			{Rate: 0.4, AvgLatencyClks: 300},
		}, 0.3, false, true},
		{"no-drain point saturates", []EnergyPoint{
			{Rate: 0.1, AvgLatencyClks: 20},
			{Rate: 0.2, Saturated: true},
		}, 0.2, false, true},
		{"exactly 3x is not past the knee", []EnergyPoint{
			{Rate: 0.1, AvgLatencyClks: 20},
			{Rate: 0.2, AvgLatencyClks: 60},
		}, 0, false, false},
		// A second point failing to drain right above a drained floor is
		// interior: the floor itself was measured fine.
		{"knee right above the floor is interior", []EnergyPoint{
			{Rate: 0.05, AvgLatencyClks: 20},
			{Rate: 0.06, Saturated: true},
			{Rate: 0.2, Saturated: true},
		}, 0.06, false, true},
	}
	for _, c := range cases {
		rate, atFloor, ok := detectSaturation(c.points)
		if rate != c.rate || atFloor != c.atFloor || ok != c.ok {
			t.Errorf("%s: detectSaturation = (%v, %v, %v), want (%v, %v, %v)",
				c.name, rate, atFloor, ok, c.rate, c.atFloor, c.ok)
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

// curveFixture is one uniform-traffic pattern sweep on the plain 8×8 mesh
// (the express hybrid with withExpress), returning its single curve.
func curveFixture(t *testing.T, withExpress bool, rates []float64, w noc.BernoulliWorkload, cfg noc.Config) EnergySweepResult {
	t.Helper()
	pats, err := traffic.ParsePatterns("uniform")
	if err != nil {
		t.Fatal(err)
	}
	point := DesignPoint{Base: tech.Electronic, Express: tech.Electronic}
	if withExpress {
		point = DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}
	}
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	sc := EnergySweepConfig{Rates: rates, Workload: w, NoC: cfg}
	results, err := PatternSweep(context.Background(), meshOnly, []DesignPoint{point}, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

// TestPatternSweepCurveShape: latency grows monotonically-ish with offered
// load and explodes near saturation — the textbook curve.
func TestPatternSweepCurveShape(t *testing.T) {
	w := noc.BernoulliWorkload{SizeFlits: 1, Cycles: 4000, Seed: 7}
	if testing.Short() {
		w.Cycles = 800
	}
	rates := []float64{0.02, 0.2, 0.45}
	pts := curveFixture(t, false, rates, w, noc.DefaultConfig()).Points
	if len(pts) != len(rates) {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if p.Saturated {
			t.Fatalf("point %v unexpectedly saturated", p.Rate)
		}
		if i > 0 && p.AvgLatencyClks < pts[i-1].AvgLatencyClks*0.95 {
			t.Errorf("latency decreased with load: %v -> %v", pts[i-1], p)
		}
		if p.P99LatencyClks < p.AvgLatencyClks {
			t.Errorf("P99 %v below mean %v", p.P99LatencyClks, p.AvgLatencyClks)
		}
	}
	if pts[2].AvgLatencyClks < 1.2*pts[0].AvgLatencyClks {
		t.Errorf("high load latency %v should clearly exceed low load %v",
			pts[2].AvgLatencyClks, pts[0].AvgLatencyClks)
	}
}

// TestPatternSweepSaturationFlagged: an absurd offered load is flagged,
// not fatal, and the knee lands at the sweep floor.
func TestPatternSweepSaturationFlagged(t *testing.T) {
	w := noc.BernoulliWorkload{SizeFlits: 1, Cycles: 4000, Seed: 7}
	cfg := noc.DefaultConfig()
	cfg.MaxCycles = 6000 // tight cap: overload cannot drain in time
	if testing.Short() {
		w.Cycles, cfg.MaxCycles = 800, 1200
	}
	r := curveFixture(t, false, []float64{0.95}, w, cfg)
	if !r.Points[0].Saturated {
		t.Error("overload point should be flagged saturated")
	}
	if !r.Saturates || !r.AtFloor || r.SaturationRate != 0.95 {
		t.Errorf("knee (%v, atFloor %v, saturates %v), want 0.95 at the floor",
			r.SaturationRate, r.AtFloor, r.Saturates)
	}
}

// TestPatternSweepPooledMatchesFresh: simulator reuse must not change a
// single bit of a sweep — the pooled ladder, whose every rate after the
// first runs on the recycled simulator, equals samples simulated on fresh
// simulators, across repeated sweeps.
func TestPatternSweepPooledMatchesFresh(t *testing.T) {
	w := noc.BernoulliWorkload{SizeFlits: 1, Cycles: 600, Seed: 5}
	cfg := noc.DefaultConfig()
	cfg.MaxCycles = 50000
	rates := []float64{0.05, 0.15, 0.3}

	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	net, tab, err := o.NetworkAndTable(DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := traffic.Lookup("uniform")
	if err != nil {
		t.Fatal(err)
	}
	base, err := uniform.Generate(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]EnergyPoint, len(rates))
	for i, rate := range rates {
		pkts, err := w.Generate(net, base.ScaledToMaxRate(rate))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := noc.New(net, tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.InjectAll(pkts); err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = EnergyPoint{Rate: rate, AvgLatencyClks: st.AvgPacketLatencyClks,
			P99LatencyClks: st.P99PacketLatencyClks}
	}
	for round := 0; round < 2; round++ {
		if got := curveFixture(t, true, rates, w, cfg).Points; !reflect.DeepEqual(fresh, got) {
			t.Errorf("round %d: pooled curve diverges:\nfresh:  %+v\npooled: %+v", round, fresh, got)
		}
	}
}
