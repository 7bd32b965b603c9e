package core

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/tech"
	"repro/internal/units"
)

func TestDefaultDesignSpace(t *testing.T) {
	pts := DefaultDesignSpace()
	// 3 bases × (1 plain + 3 express techs × 3 hop lengths) = 30.
	if len(pts) != 30 {
		t.Fatalf("design space has %d points, want 30", len(pts))
	}
	seen := map[DesignPoint]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Errorf("duplicate point %v", p)
		}
		seen[p] = true
	}
}

func TestExploreHeadline(t *testing.T) {
	o := DefaultOptions()
	pts := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	res, err := Explore(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	ratio := res[1].CLEAR / res[0].CLEAR
	if !units.WithinFactor(ratio, 1.8, 1.35) {
		t.Errorf("headline CLEAR ratio %v, want ≈1.8", ratio)
	}
	ratios := CLEARRatioVsPlain(res)
	if !units.ApproxEqual(ratios[pts[0]], 1, 1e-12) {
		t.Errorf("plain mesh ratio %v, want 1", ratios[pts[0]])
	}
	if !units.ApproxEqual(ratios[pts[1]], ratio, 1e-9) {
		t.Errorf("express ratio %v, want %v", ratios[pts[1]], ratio)
	}
}

func TestLinkSweepRuns(t *testing.T) {
	pts, err := LinkSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 51 {
		t.Fatalf("sweep has %d points", len(pts))
	}
}

// TestTraceExperimentSmall runs a down-scaled LU trace end to end through
// generation → packetization → simulation → DSENT pricing.
func TestTraceExperimentSmall(t *testing.T) {
	o := DefaultOptions()
	k := npb.DefaultConfig(npb.LU)
	k.Iterations = 2
	plain := DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}
	res, err := RunTraceExperiment(k, plain, o, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatencyClks <= 0 {
		t.Error("latency must be positive")
	}
	if res.DynamicEnergyJ <= 0 {
		t.Error("dynamic energy must be positive")
	}
	if !units.WithinFactor(res.StaticPowerW, 1.53, 1.03) {
		t.Errorf("plain mesh static %v W, want ≈1.53", res.StaticPowerW)
	}
	// LU is 1-hop traffic: zero-load latency 7 clks + serialization; the
	// average must be near the zero-load value for paced traces.
	if res.AvgLatencyClks > 100 {
		t.Errorf("LU latency %v suspiciously high", res.AvgLatencyClks)
	}
	if res.Stats.PacketsEjected != res.Stats.PacketsInjected {
		t.Error("trace did not drain")
	}
}

// TestTableVShape: on a reduced FT trace, HyPPI express dynamic energy is
// far below photonic and comparable to the plain mesh (Table V).
func TestTableVShape(t *testing.T) {
	o := DefaultOptions()
	k := npb.DefaultConfig(npb.FT)
	k.Iterations = 1
	k.Scale = 1.0 / 64
	if testing.Short() {
		// The Table V orderings already hold on a 12×12 system with
		// single-flit messages: ~3× fewer all-to-all packets than the
		// paper's 16×16 and 4× fewer flits per packet.
		o.Topology.Width, o.Topology.Height = 12, 12
		k.GridW, k.GridH = 12, 12
		k.Scale = 1.0 / 256
	}
	run := func(p DesignPoint) TraceResult {
		t.Helper()
		res, err := RunTraceExperiment(k, p, o, noc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0})
	hyppi := run(DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3})
	photonic := run(DesignPoint{Base: tech.Electronic, Express: tech.Photonic, Hops: 3})
	elec := run(DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 3})

	if photonic.DynamicEnergyJ < 3*hyppi.DynamicEnergyJ {
		t.Errorf("photonic express energy %v should dwarf HyPPI %v",
			photonic.DynamicEnergyJ, hyppi.DynamicEnergyJ)
	}
	if !units.WithinFactor(hyppi.DynamicEnergyJ, elec.DynamicEnergyJ, 1.5) {
		t.Errorf("HyPPI express energy %v should be comparable to electronic express %v",
			hyppi.DynamicEnergyJ, elec.DynamicEnergyJ)
	}
	if hyppi.DynamicEnergyJ < plain.DynamicEnergyJ*0.5 {
		t.Errorf("express energy %v implausibly below plain mesh %v",
			hyppi.DynamicEnergyJ, plain.DynamicEnergyJ)
	}
	// Latencies improve (FT is all-to-all).
	if hyppi.AvgLatencyClks >= plain.AvgLatencyClks {
		t.Errorf("FT express latency %v should beat plain %v",
			hyppi.AvgLatencyClks, plain.AvgLatencyClks)
	}
	// Photonic and HyPPI express have identical latency (same 2-clk links).
	if photonic.AvgLatencyClks != hyppi.AvgLatencyClks {
		t.Errorf("optical express latencies must match: %v vs %v",
			photonic.AvgLatencyClks, hyppi.AvgLatencyClks)
	}
}

func TestAllOpticalRadarOrdering(t *testing.T) {
	radar, err := AllOpticalRadar(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if radar.HyPPI.AreaM2 >= radar.Electronic.AreaM2 ||
		radar.Electronic.AreaM2 >= radar.Photonic.AreaM2 {
		t.Errorf("area ordering HyPPI < Electronic < Photonic broken: %v / %v / %v",
			radar.HyPPI.AreaM2, radar.Electronic.AreaM2, radar.Photonic.AreaM2)
	}
	if radar.HyPPI.EnergyPerBitJ >= radar.Electronic.EnergyPerBitJ {
		t.Error("all-HyPPI must be more energy efficient than electronic")
	}
	if radar.HyPPI.LatencyClks >= radar.Electronic.LatencyClks {
		t.Error("all-optical latency must be below electronic")
	}
}

func TestDesignPointString(t *testing.T) {
	p := DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}
	if p.String() != "Electronic mesh + HyPPI express@3" {
		t.Errorf("String() = %q", p.String())
	}
	plain := DesignPoint{Base: tech.HyPPI, Express: tech.HyPPI, Hops: 0}
	if plain.String() != "HyPPI mesh" {
		t.Errorf("String() = %q", plain.String())
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatEnergy(4.2e-3); got != "4.2 mJ" {
		t.Errorf("FormatEnergy = %q", got)
	}
	if got := FormatArea(22.1e-6); got != "22.1 mm²" {
		t.Errorf("FormatArea = %q", got)
	}
}

func TestExploreRejectsBadPoint(t *testing.T) {
	o := DefaultOptions()
	if _, err := Explore([]DesignPoint{{Base: tech.Electronic, Express: tech.Electronic, Hops: 99}}, o); err == nil {
		t.Error("invalid hop length must fail")
	}
}
