package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
	"repro/internal/units"
)

func mesh(t testing.TB) *topology.Network {
	t.Helper()
	n, err := topology.Build(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// generate builds registry pattern name on net at rate.
func generate(t testing.TB, net *topology.Network, name string, rate float64) *Matrix {
	t.Helper()
	p, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Generate(net, rate)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSoteriouInvariants(t *testing.T) {
	net := mesh(t)
	m := MustSoteriou(net, DefaultSoteriou())
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid matrix: %v", err)
	}
	if m.N != 256 {
		t.Fatalf("N = %d", m.N)
	}
	// Maximum per-node injection equals the configured cap.
	if got := m.MaxRowSum(); !units.ApproxEqual(got, 0.1, 1e-9) {
		t.Errorf("max row sum = %v, want 0.1", got)
	}
	// Every rate non-negative and total positive.
	if m.MeanRowSum() <= 0 {
		t.Error("mean injection must be positive")
	}
}

// TestSigmaShapesInjectionSpread: with σ=0.4 half-normal levels, the mean
// per-node rate should sit near 0.31 of the max — the ratio that makes the
// R values of Table III come out right.
func TestSigmaShapesInjectionSpread(t *testing.T) {
	net := mesh(t)
	m := MustSoteriou(net, DefaultSoteriou())
	ratio := m.MeanRowSum() / m.MaxRowSum()
	if ratio < 0.20 || ratio > 0.45 {
		t.Errorf("mean/max injection ratio = %v, want ≈0.31 (half-normal σ=0.4)", ratio)
	}
	// A larger σ concentrates more nodes at the cap, raising the ratio.
	big := DefaultSoteriou()
	big.Sigma = 2.0
	mb := MustSoteriou(net, big)
	if mb.MeanRowSum()/mb.MaxRowSum() <= ratio {
		t.Error("larger sigma should raise the mean/max injection ratio")
	}
}

// TestPShapesHopDistance: the paper's p=0.02 yields long routes; raising p
// shortens them (geometric acceptance).
func TestPShapesHopDistance(t *testing.T) {
	net := mesh(t)
	low := MustSoteriou(net, DefaultSoteriou())
	hiCfg := DefaultSoteriou()
	hiCfg.P = 0.5
	hi := MustSoteriou(net, hiCfg)
	dLow := MeanHopDistance(net, low)
	dHi := MeanHopDistance(net, hi)
	if dLow <= dHi {
		t.Errorf("p=0.02 mean distance %v should exceed p=0.5 distance %v", dLow, dHi)
	}
	// With p=0.02 on a 16×16 mesh the mean should be in the low teens
	// (near-uniform over distances 1..30, mild geometric decay).
	if dLow < 9 || dLow > 16 {
		t.Errorf("p=0.02 mean hop distance = %v, want ≈13", dLow)
	}
	// With p=0.5 most traffic is nearest-neighbourhood.
	if dHi > 4 {
		t.Errorf("p=0.5 mean hop distance = %v, want short-range", dHi)
	}
}

func TestSoteriouDeterminism(t *testing.T) {
	net := mesh(t)
	a := denseRows(MustSoteriou(net, DefaultSoteriou()))
	b := denseRows(MustSoteriou(net, DefaultSoteriou()))
	for s := range a {
		for d := range a[s] {
			if a[s][d] != b[s][d] {
				t.Fatalf("same seed diverged at [%d][%d]", s, d)
			}
		}
	}
	c := DefaultSoteriou()
	c.Seed = 99
	other := denseRows(MustSoteriou(net, c))
	same := true
	for s := 0; s < len(a) && same; s++ {
		for d := range a[s] {
			if a[s][d] != other[s][d] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical matrices")
	}
}

func TestSoteriouConfigValidation(t *testing.T) {
	net := mesh(t)
	bad := []SoteriouConfig{
		{P: 0, Sigma: 0.4, MaxInjectionRate: 0.1},
		{P: 1, Sigma: 0.4, MaxInjectionRate: 0.1},
		{P: 0.02, Sigma: 0, MaxInjectionRate: 0.1},
		{P: 0.02, Sigma: 0.4, MaxInjectionRate: 0},
		{P: 0.02, Sigma: 0.4, MaxInjectionRate: 1.5},
	}
	for i, c := range bad {
		if _, err := Soteriou(net, c); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestScaledToMaxRate(t *testing.T) {
	net := mesh(t)
	m := MustSoteriou(net, DefaultSoteriou())
	for _, r := range []float64{0.01, 0.05, 0.1} {
		s := m.ScaledToMaxRate(r)
		if got := s.MaxRowSum(); !units.ApproxEqual(got, r, 1e-9) {
			t.Errorf("ScaledToMaxRate(%v) max = %v", r, got)
		}
	}
	// Scaling is linear: mean scales by the same factor.
	s := m.ScaledToMaxRate(0.05)
	if !units.ApproxEqual(s.MeanRowSum(), m.MeanRowSum()*0.5, 1e-9) {
		t.Error("scaling must be linear")
	}
	z := m.Scaled(0).ScaledToMaxRate(0.1)
	if z.MaxRowSum() != 0 {
		t.Error("scaling a zero matrix stays zero")
	}
}

// TestScalingLinearityProperty: Scaled(a).Scaled(b) == Scaled(a*b).
func TestScalingLinearityProperty(t *testing.T) {
	net := mesh(t)
	m := MustSoteriou(net, DefaultSoteriou())
	f := func(rawA, rawB float64) bool {
		a := math.Mod(math.Abs(rawA), 2)
		b := math.Mod(math.Abs(rawB), 2)
		x := m.Scaled(a).Scaled(b)
		y := m.Scaled(a * b)
		for s := 0; s < m.N; s += 17 {
			xs, ys := x.Row(s, nil), y.Row(s, nil)
			for d := 0; d < m.N; d += 13 {
				if !units.ApproxEqual(xs[d], ys[d], 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUniform(t *testing.T) {
	net := mesh(t)
	m := generate(t, net, "uniform", 0.1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < m.N; s++ {
		if !units.ApproxEqual(m.RowSum(s), 0.1, 1e-9) {
			t.Fatalf("node %d injects %v, want 0.1", s, m.RowSum(s))
		}
	}
	// Uniform mean distance on 16×16 mesh is 2/3·16 ≈ 10.67.
	if d := MeanHopDistance(net, m); d < 10 || d > 11.5 {
		t.Errorf("uniform mean distance = %v, want ≈10.7", d)
	}
}

func TestTranspose(t *testing.T) {
	net := mesh(t)
	m := generate(t, net, "transpose", 0.1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// (x,y) -> (y,x): node (3,5) sends to (5,3).
	if got := m.Row(int(net.Node(3, 5)), nil)[net.Node(5, 3)]; got != 0.1 {
		t.Errorf("transpose rate = %v", got)
	}
	// Diagonal nodes are silent.
	if got := m.RowSum(int(net.Node(4, 4))); got != 0 {
		t.Errorf("diagonal node injects %v", got)
	}
}

func TestBitComplement(t *testing.T) {
	net := mesh(t)
	m := generate(t, net, "bitcomp", 0.1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Row(0, nil)[255]; got != 0.1 {
		t.Errorf("node 0 -> 255 rate = %v", got)
	}
	// Bit complement of a 16×16 mesh crosses the whole chip: mean
	// distance is 16 (avg |x - (15-x)| = 8 per dimension... exactly 2×8).
	if d := MeanHopDistance(net, m); d < 14 || d > 18 {
		t.Errorf("bit-complement mean distance = %v, want ≈16", d)
	}
}

func TestMeanHopDistanceEmpty(t *testing.T) {
	net := mesh(t)
	empty := MustSoteriou(net, DefaultSoteriou()).Scaled(0)
	if d := MeanHopDistance(net, empty); d != 0 {
		t.Errorf("empty matrix distance = %v", d)
	}
}

func TestMatrixValidateCatchesCorruption(t *testing.T) {
	m := generate(t, grid(t, 4, 4), "uniform", 0.1)
	if err := m.Scaled(-1).Validate(); err == nil {
		t.Error("negative scale must be rejected")
	}
	if err := m.Scaled(math.NaN()).Validate(); err == nil {
		t.Error("NaN scale must be rejected")
	}
	if err := m.Scaled(math.Inf(1)).Validate(); err == nil {
		t.Error("infinite scale must be rejected")
	}
}
