package analytic

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

func network(t testing.TB, hops int, base, express tech.Technology) *topology.Network {
	t.Helper()
	c := topology.DefaultConfig()
	c.BaseTech = base
	c.ExpressTech = express
	c.ExpressHops = hops
	n, err := topology.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func evaluate(t testing.TB, net *topology.Network) Result {
	t.Helper()
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	tm := traffic.MustSoteriou(net, traffic.DefaultSoteriou())
	res, err := Evaluate(net, tab, tm, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTableIIIR pins the R column of Table III: 1.122 (plain), 0.808 (h=3),
// 0.885 (h=5), 1.050 (h=15), within 15% — R depends on the statistical
// traffic draw, so shape and magnitude are what we assert.
func TestTableIIIR(t *testing.T) {
	cases := []struct {
		hops int
		want float64
	}{
		{0, 1.122},
		{3, 0.808},
		{5, 0.885},
		{15, 1.050},
	}
	got := map[int]float64{}
	for _, c := range cases {
		res := evaluate(t, network(t, c.hops, tech.Electronic, tech.HyPPI))
		got[c.hops] = res.R
		if !units.WithinFactor(res.R, c.want, 1.15) {
			t.Errorf("hops=%d: R = %v, want ≈%v", c.hops, res.R, c.want)
		}
	}
	// The ordering must hold exactly: more express capacity → slower
	// utilization growth.
	if !(got[3] < got[5] && got[5] < got[15] && got[15] < got[0]) {
		t.Errorf("R ordering broken: %v", got)
	}
}

// TestTableIIICapabilityViaResult re-checks C through the Result path.
func TestTableIIICapabilityViaResult(t *testing.T) {
	if got := evaluate(t, network(t, 3, tech.Electronic, tech.HyPPI)).CapabilityGbpsPerNode; got != 218.75 {
		t.Errorf("C = %v, want 218.75", got)
	}
}

// TestFig5HeadlineCLEAR pins the paper's headline: augmenting an electronic
// mesh with HyPPI express links at hops=3 improves CLEAR by ≈1.8× over the
// plain electronic mesh.
func TestFig5HeadlineCLEAR(t *testing.T) {
	plain := evaluate(t, network(t, 0, tech.Electronic, tech.Electronic))
	hyppi3 := evaluate(t, network(t, 3, tech.Electronic, tech.HyPPI))
	ratio := hyppi3.CLEAR / plain.CLEAR
	if !units.WithinFactor(ratio, 1.8, 1.35) {
		t.Errorf("CLEAR(E+HyPPI@3)/CLEAR(E mesh) = %v, want ≈1.8", ratio)
	}
	if ratio <= 1.2 {
		t.Errorf("HyPPI express must clearly improve CLEAR, ratio %v", ratio)
	}
}

// TestFig5PhotonicExpressWorstOnElectronicBase: on an electronic base mesh,
// photonic express links are the worst option (static power explosion) —
// worse than electronic express links. We assert the strict ordering at
// hops 3 and 5, where the paper's effect is strongest (many photonic
// links); at hops=15 only 32 express channels remain and the gap is within
// modeling noise, so we only require photonics not to win decisively.
func TestFig5PhotonicExpressWorstOnElectronicBase(t *testing.T) {
	for _, hops := range []int{3, 5, 15} {
		e := evaluate(t, network(t, hops, tech.Electronic, tech.Electronic))
		p := evaluate(t, network(t, hops, tech.Electronic, tech.Photonic))
		h := evaluate(t, network(t, hops, tech.Electronic, tech.HyPPI))
		if hops != 15 && p.CLEAR >= e.CLEAR {
			t.Errorf("hops=%d: photonic express CLEAR %v should be below electronic %v", hops, p.CLEAR, e.CLEAR)
		}
		if hops == 15 && p.CLEAR > 1.3*e.CLEAR {
			t.Errorf("hops=15: photonic express CLEAR %v should not decisively beat electronic %v", p.CLEAR, e.CLEAR)
		}
		if h.CLEAR <= p.CLEAR {
			t.Errorf("hops=%d: HyPPI express CLEAR %v should beat photonic %v", hops, h.CLEAR, p.CLEAR)
		}
		if p.PowerW <= e.PowerW {
			t.Errorf("hops=%d: photonic express power %v should exceed electronic %v", hops, p.PowerW, e.PowerW)
		}
	}
}

// TestFig5CLEARDecreasesWithHops: fewer express channels at larger hop
// lengths reduce CLEAR (C falls, R rises).
func TestFig5CLEARDecreasesWithHops(t *testing.T) {
	h3 := evaluate(t, network(t, 3, tech.Electronic, tech.HyPPI))
	h5 := evaluate(t, network(t, 5, tech.Electronic, tech.HyPPI))
	h15 := evaluate(t, network(t, 15, tech.Electronic, tech.HyPPI))
	if !(h3.CLEAR > h5.CLEAR && h5.CLEAR > h15.CLEAR) {
		t.Errorf("CLEAR should fall with hop length: %v / %v / %v", h3.CLEAR, h5.CLEAR, h15.CLEAR)
	}
}

// TestFig5HyPPIBaseBestCLEAR: across base-mesh technologies, the HyPPI base
// mesh has the best CLEAR (smaller links, near-electronic power), and the
// photonic base the worst.
func TestFig5HyPPIBaseBestCLEAR(t *testing.T) {
	e := evaluate(t, network(t, 0, tech.Electronic, tech.Electronic))
	p := evaluate(t, network(t, 0, tech.Photonic, tech.Photonic))
	h := evaluate(t, network(t, 0, tech.HyPPI, tech.HyPPI))
	if !(h.CLEAR > e.CLEAR && e.CLEAR > p.CLEAR) {
		t.Errorf("base mesh CLEAR ordering HyPPI > E > Photonic broken: H=%v E=%v P=%v",
			h.CLEAR, e.CLEAR, p.CLEAR)
	}
	// Latency, though, favours the electronic base (1 clk links).
	if !(e.AvgLatencyClks < h.AvgLatencyClks) {
		t.Errorf("electronic base latency %v should beat optical base %v", e.AvgLatencyClks, h.AvgLatencyClks)
	}
	// Photonic base burns much more power than either.
	if p.PowerW < 3*e.PowerW {
		t.Errorf("photonic base power %v should dwarf electronic %v", p.PowerW, e.PowerW)
	}
	// HyPPI base area is the smallest.
	if !(h.AreaM2 < e.AreaM2 && h.AreaM2 < p.AreaM2) {
		t.Errorf("HyPPI base area %v should be smallest (E=%v, P=%v)", h.AreaM2, e.AreaM2, p.AreaM2)
	}
}

// TestTableIVStaticPower pins Table IV: electronic base mesh ≈1.53 W; HyPPI
// express adds ~15 mW at hops=3; photonic express adds ~1.5 W at hops=3 and
// ~0.3 W at hops=15.
func TestTableIVStaticPower(t *testing.T) {
	base := evaluate(t, network(t, 0, tech.Electronic, tech.Electronic))
	if !units.WithinFactor(base.StaticW, 1.53, 1.03) {
		t.Errorf("base static = %v W, want ≈1.53", base.StaticW)
	}
	cases := []struct {
		express tech.Technology
		hops    int
		want    float64
	}{
		{tech.Electronic, 3, 1.532},
		{tech.Electronic, 15, 1.547},
		{tech.Photonic, 3, 3.076},
		{tech.Photonic, 5, 2.458},
		{tech.Photonic, 15, 1.839},
		{tech.HyPPI, 3, 1.545},
		{tech.HyPPI, 5, 1.539},
		{tech.HyPPI, 15, 1.533},
	}
	for _, c := range cases {
		res := evaluate(t, network(t, c.hops, tech.Electronic, c.express))
		if !units.WithinFactor(res.StaticW, c.want, 1.04) {
			t.Errorf("%v@%d static = %v W, want ≈%v", c.express, c.hops, res.StaticW, c.want)
		}
	}
}

// TestLatencyImprovesWithExpress: adding express links cuts average latency.
func TestLatencyImprovesWithExpress(t *testing.T) {
	plain := evaluate(t, network(t, 0, tech.Electronic, tech.Electronic))
	h3 := evaluate(t, network(t, 3, tech.Electronic, tech.HyPPI))
	if h3.AvgLatencyClks >= plain.AvgLatencyClks {
		t.Errorf("express should cut latency: %v vs %v", h3.AvgLatencyClks, plain.AvgLatencyClks)
	}
	if h3.ExpressFlitFraction <= 0.1 {
		t.Errorf("express links should carry real traffic, fraction %v", h3.ExpressFlitFraction)
	}
	if plain.ExpressFlitFraction != 0 {
		t.Error("plain mesh cannot have express traffic")
	}
}

// TestCLEARNearlyFlatInInjectionRate: the paper notes only a small CLEAR
// reduction when sweeping the injection rate from 0.01 to 0.1.
func TestCLEARNearlyFlatInInjectionRate(t *testing.T) {
	net := network(t, 0, tech.Electronic, tech.Electronic)
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	base := traffic.MustSoteriou(net, traffic.DefaultSoteriou())
	var prev float64
	for i, r := range []float64{0.01, 0.05, 0.1} {
		res, err := Evaluate(net, tab, base.ScaledToMaxRate(r), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.CLEAR > prev {
			t.Errorf("CLEAR should not rise with injection rate: %v -> %v", prev, res.CLEAR)
		}
		prev = res.CLEAR
	}
	lo, _ := Evaluate(net, tab, base.ScaledToMaxRate(0.01), DefaultParams())
	hi, _ := Evaluate(net, tab, base.ScaledToMaxRate(0.1), DefaultParams())
	if ratio := lo.CLEAR / hi.CLEAR; ratio > 2.0 {
		t.Errorf("CLEAR drop 0.01→0.1 should be small, got factor %v", ratio)
	}
}

// TestUtilizationLinearInRate: R is rate independent because utilization is
// linear in the injection scale (fixed oblivious routes).
func TestUtilizationLinearInRate(t *testing.T) {
	net := network(t, 3, tech.Electronic, tech.HyPPI)
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	base := traffic.MustSoteriou(net, traffic.DefaultSoteriou())
	a, err := Evaluate(net, tab, base.ScaledToMaxRate(0.02), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(net, tab, base.ScaledToMaxRate(0.08), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(a.R, b.R, 1e-6) {
		t.Errorf("R must be injection-rate independent: %v vs %v", a.R, b.R)
	}
	if !units.ApproxEqual(b.AvgUtilization, 4*a.AvgUtilization, 1e-6) {
		t.Errorf("utilization must scale linearly: %v vs %v", a.AvgUtilization, b.AvgUtilization)
	}
}

// TestUtilizationBounds: all utilizations in [0, 1] at the paper's operating
// point (traces are constructed not to saturate).
func TestUtilizationBounds(t *testing.T) {
	for _, hops := range []int{0, 3, 15} {
		res := evaluate(t, network(t, hops, tech.Electronic, tech.HyPPI))
		if res.AvgUtilization <= 0 || res.AvgUtilization > 1 {
			t.Errorf("hops=%d avg utilization %v out of (0,1]", hops, res.AvgUtilization)
		}
		if res.MaxUtilization > 1 {
			t.Errorf("hops=%d: channel oversubscribed (%v) at injection 0.1", hops, res.MaxUtilization)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	net := network(t, 0, tech.Electronic, tech.Electronic)
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	small := topology.DefaultConfig()
	small.Width, small.Height = 4, 4
	smallNet, err := topology.Build(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(net, tab, traffic.MustSoteriou(smallNet, traffic.DefaultSoteriou()), DefaultParams()); err == nil {
		t.Error("node-count mismatch must fail")
	}
	tm := traffic.MustSoteriou(net, traffic.DefaultSoteriou())
	if _, err := Evaluate(net, tab, tm.Scaled(0), DefaultParams()); err == nil {
		t.Error("empty traffic must fail")
	}
	bad := DefaultParams()
	bad.RouterPipelineClks = 0
	if _, err := Evaluate(net, tab, tm, bad); err == nil {
		t.Error("zero pipeline depth must fail")
	}
	if _, err := Evaluate(net, tab, tm.Scaled(-1), DefaultParams()); err == nil {
		t.Error("invalid traffic matrix must fail")
	}
}
