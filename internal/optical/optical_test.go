package optical

import (
	"errors"
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/routing"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

func plainMesh(t testing.TB) (*topology.Network, *routing.Table, *traffic.Matrix) {
	t.Helper()
	net, err := topology.Build(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	tm := traffic.MustSoteriou(net, traffic.DefaultSoteriou())
	return net, tab, tm
}

// TestTableVIRouters pins the Table VI characterization of both routers.
func TestTableVIRouters(t *testing.T) {
	h := HyPPIRouter()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.ControlFJPerBit != 3.73 || h.AreaUM2 != 500 {
		t.Errorf("HyPPI router energy/area: %v fJ/bit, %v µm²; want 3.73, 500", h.ControlFJPerBit, h.AreaUM2)
	}
	lo, hi := h.LossRange()
	if lo != 0.32 || hi != 9.10 {
		t.Errorf("HyPPI loss range %v–%v dB, want 0.32–9.1", lo, hi)
	}

	p := PhotonicRouter()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.ControlFJPerBit != 68.2 || p.AreaUM2 != 480000 {
		t.Errorf("photonic router energy/area: %v fJ/bit, %v µm²; want 68.2, 480000", p.ControlFJPerBit, p.AreaUM2)
	}
	lo, hi = p.LossRange()
	if lo != 0.39 || hi != 1.50 {
		t.Errorf("photonic loss range %v–%v dB, want 0.39–1.5", lo, hi)
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	m := HyPPIRouter()
	m.LossDB[0][0] = 1 // U-turn allowed: invalid
	if err := m.Validate(); err == nil {
		t.Error("U-turn entry must be rejected")
	}
	m = HyPPIRouter()
	m.LossDB[0][1] = -1
	if err := m.Validate(); err == nil {
		t.Error("negative loss must be rejected")
	}
	m = HyPPIRouter()
	m.LossDB[0][1] = 5 // breaks symmetry
	if err := m.Validate(); err == nil {
		t.Error("asymmetric loss must be rejected")
	}
	m = HyPPIRouter()
	m.ControlFJPerBit = 0
	if err := m.Validate(); err == nil {
		t.Error("zero control energy must be rejected")
	}
}

// TestOptimalAssignmentPrefersCheapStraights: with X-Y routing, E↔W straight
// transit dominates; the optimizer must place East/West on the cheapest
// port pair and keep the traffic-weighted mean loss below the naive
// identity assignment's.
func TestOptimalAssignmentPrefersCheapStraights(t *testing.T) {
	rm := HyPPIRouter()
	var w TurnWeights
	w[West][East] = 10 // straight X transit dominates
	w[East][West] = 10
	w[North][South] = 2
	w[South][North] = 2
	w[Local][East] = 1
	w[West][Local] = 1
	assign, cost := rm.OptimalAssignment(w)
	ew := rm.LossDB[assign[East]][assign[West]]
	lo, _ := rm.LossRange()
	if ew != lo {
		t.Errorf("E↔W straight assigned loss %v dB, want the minimum %v", ew, lo)
	}
	// Identity assignment cost for comparison.
	idCost := 0.0
	weight := 0.0
	for i := 0; i < NumPorts; i++ {
		for j := 0; j < NumPorts; j++ {
			if i != j && w[i][j] > 0 {
				idCost += w[i][j] * rm.LossDB[i][j]
				weight += w[i][j]
			}
		}
	}
	idCost /= weight
	if cost > idCost {
		t.Errorf("optimized cost %v exceeds identity cost %v", cost, idCost)
	}
}

// TestFig8Projections reproduces the Fig. 8 radar orderings: all-HyPPI beats
// the all-photonic NoC on area by about two orders of magnitude and the
// electronic mesh by about one; both optical options beat electronics on
// energy by at least an order of magnitude; optical latency is half
// electronic.
func TestFig8Projections(t *testing.T) {
	net, tab, tm := plainMesh(t)
	res, err := analytic.Evaluate(net, tab, tm, analytic.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Delivered bandwidth: injected flits/cycle × flit bits × clock.
	delivered := tm.MeanRowSum() * 256 * 64 * 0.78125e9
	elec := ElectronicReference(res.PowerW, res.AvgLatencyClks, res.AreaM2, delivered)

	p := DefaultParams()
	hyppi, err := ProjectAllOptical(net, tab, tm, HyPPIRouter(), p, res.AvgLatencyClks)
	if err != nil {
		t.Fatal(err)
	}
	photonic, err := ProjectAllOptical(net, tab, tm, PhotonicRouter(), p, res.AvgLatencyClks)
	if err != nil {
		t.Fatal(err)
	}

	// Latency: optical = 50% of electronic.
	if !units.ApproxEqual(hyppi.LatencyClks, 0.5*elec.LatencyClks, 1e-9) {
		t.Errorf("optical latency %v, want half of %v", hyppi.LatencyClks, elec.LatencyClks)
	}

	// Area: paper values 22.1 / 127.7 / 1.24 mm².
	if !units.WithinFactor(elec.AreaM2, 22.1*units.MillimetreSq, 1.05) {
		t.Errorf("electronic area %v mm², want ≈22.1", elec.AreaM2/units.MillimetreSq)
	}
	if !units.WithinFactor(photonic.AreaM2, 127.7*units.MillimetreSq, 1.05) {
		t.Errorf("all-photonic area %v mm², want ≈127.7", photonic.AreaM2/units.MillimetreSq)
	}
	if !units.WithinFactor(hyppi.AreaM2, 1.24*units.MillimetreSq, 1.15) {
		t.Errorf("all-HyPPI area %v mm², want ≈1.24", hyppi.AreaM2/units.MillimetreSq)
	}
	// Orders-of-magnitude area claims.
	if photonic.AreaM2/hyppi.AreaM2 < 50 {
		t.Errorf("all-HyPPI should be ~two orders smaller than all-photonic, ratio %v",
			photonic.AreaM2/hyppi.AreaM2)
	}
	if elec.AreaM2/hyppi.AreaM2 < 10 {
		t.Errorf("all-HyPPI should be ~an order smaller than electronic, ratio %v",
			elec.AreaM2/hyppi.AreaM2)
	}

	// Energy: both optical projections must be far below electronics and
	// close to each other (paper: 352 vs 354 fJ/bit).
	if elec.EnergyPerBitJ/hyppi.EnergyPerBitJ < 10 {
		t.Errorf("all-HyPPI energy %v J/bit should be ≥10× below electronic %v",
			hyppi.EnergyPerBitJ, elec.EnergyPerBitJ)
	}
	if !units.WithinFactor(photonic.EnergyPerBitJ, hyppi.EnergyPerBitJ, 5) {
		t.Errorf("optical energies should be comparable: photonic %v vs HyPPI %v",
			photonic.EnergyPerBitJ, hyppi.EnergyPerBitJ)
	}

	// The all-HyPPI triangle is strictly inside both others.
	if !TriangleBetter(hyppi, elec) {
		t.Errorf("all-HyPPI should dominate electronic: %+v vs %+v", hyppi, elec)
	}
	if !TriangleBetter(hyppi, photonic) {
		t.Errorf("all-HyPPI should dominate all-photonic: %+v vs %+v", hyppi, photonic)
	}
}

// TestPathLossAccounting checks the loss budget of a known route on a tiny
// mesh with the identity assignment.
func TestPathLossAccounting(t *testing.T) {
	c := topology.DefaultConfig()
	c.Width, c.Height = 4, 4
	net := topology.MustBuild(c)
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	rm := HyPPIRouter()
	dev, err := tech.Optical(tech.HyPPI)
	if err != nil {
		t.Fatal(err)
	}
	assign := Assignment{0, 1, 2, 3, 4}
	turnLoss := rm.LossDB // the identity assignment's turn losses
	sourceDB := dev.Modulator.InsertionLossDB + dev.Waveguide.CouplingLossDB
	// Route (0,0) -> (2,0): two eastward 1 mm hops, three routers.
	lossDB, routers, err := newWalker(net, tab, dev).pathLoss(net.Node(0, 0), net.Node(2, 0), &turnLoss, sourceDB)
	if err != nil {
		t.Fatal(err)
	}
	if routers != 3 {
		t.Errorf("routers on path = %d, want 3", routers)
	}
	want := dev.Modulator.InsertionLossDB + dev.Waveguide.CouplingLossDB +
		rm.LossDB[assign[Local]][assign[East]] + // inject → east
		rm.LossDB[assign[West]][assign[East]] + // transit straight
		rm.LossDB[assign[West]][assign[Local]] + // eject
		dev.Waveguide.PropagationLossDBPerCM*0.2 // 2 mm
	if !units.ApproxEqual(lossDB, want, 1e-9) {
		t.Errorf("path loss %v dB, want %v", lossDB, want)
	}
}

// TestLongerRoutesLoseMore: end-to-end loss grows with route length.
func TestLongerRoutesLoseMore(t *testing.T) {
	net, tab, _ := plainMesh(t)
	rm := HyPPIRouter()
	dev, _ := tech.Optical(tech.HyPPI)
	turnLoss := rm.LossDB
	wk := newWalker(net, tab, dev)
	short, _, err := wk.pathLoss(net.Node(0, 0), net.Node(1, 0), &turnLoss, 0)
	if err != nil {
		t.Fatal(err)
	}
	long, _, err := wk.pathLoss(net.Node(0, 0), net.Node(15, 15), &turnLoss, 0)
	if err != nil {
		t.Fatal(err)
	}
	if long <= short {
		t.Errorf("corner-to-corner loss %v should exceed neighbour loss %v", long, short)
	}
}

func TestDirectionHelpers(t *testing.T) {
	if opposite(East) != West || opposite(West) != East ||
		opposite(North) != South || opposite(South) != North || opposite(Local) != Local {
		t.Error("opposite() broken")
	}
	names := []string{"Local", "East", "West", "North", "South"}
	for i, n := range names {
		if Direction(i).String() != n {
			t.Errorf("Direction(%d).String() = %q", i, Direction(i).String())
		}
	}
}

func TestProjectErrors(t *testing.T) {
	net, tab, tm := plainMesh(t)
	bad := HyPPIRouter()
	bad.AreaUM2 = 0
	if _, err := ProjectAllOptical(net, tab, tm, bad, DefaultParams(), 50); err == nil {
		t.Error("invalid router must fail")
	}
	p := DefaultParams()
	p.LatencyFactor = 0
	if _, err := ProjectAllOptical(net, tab, tm, HyPPIRouter(), p, 50); err == nil {
		t.Error("invalid params must fail")
	}
	if _, err := ProjectAllOptical(net, tab, tm.Scaled(0), HyPPIRouter(), DefaultParams(), 50); err == nil {
		t.Error("empty traffic must fail")
	}

	// A degraded table with a positive-rate pair that has no route: node
	// 0 of a 4×4 mesh cut off.
	c := topology.DefaultConfig()
	c.Width, c.Height = 4, 4
	small := topology.MustBuild(c)
	down := make([]bool, len(small.Links))
	for _, l := range small.Links {
		if l.Src == 0 || l.Dst == 0 {
			down[l.ID] = true
		}
	}
	masked, err := small.MaskLinks(down)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := routing.BuildDegraded(masked, routing.MonotoneExpress)
	if err != nil {
		t.Fatal(err)
	}
	cut := traffic.MustSoteriou(masked, traffic.DefaultSoteriou())
	if _, err := ProjectAllOptical(masked, degraded, cut, HyPPIRouter(), DefaultParams(), 50); !errors.Is(err, routing.ErrUnreachable) {
		t.Errorf("unreachable pair: err = %v, want routing.ErrUnreachable", err)
	}
}

func TestLossRangeIgnoresNaN(t *testing.T) {
	rm := HyPPIRouter()
	lo, hi := rm.LossRange()
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		t.Errorf("loss range contaminated by diagonal: %v, %v", lo, hi)
	}
}

// TestProjectAllocsFlatInPairs: a projection allocates a fixed handful of
// buffers (the walker's per-channel steps, the rate rows), never per
// (src, dst) pair — 16×16 has 16× the pairs of 8×8 and must allocate
// within a small constant of it.
func TestProjectAllocsFlatInPairs(t *testing.T) {
	allocs := func(w int) float64 {
		c := topology.DefaultConfig()
		c.Width, c.Height = w, w
		net := topology.MustBuild(c)
		tab := routing.MustBuild(net, routing.MonotoneExpress)
		tm := traffic.MustSoteriou(net, traffic.DefaultSoteriou())
		return testing.AllocsPerRun(2, func() {
			if _, err := ProjectAllOptical(net, tab, tm, HyPPIRouter(), DefaultParams(), 50); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(16)
	if large > small+2 {
		t.Errorf("ProjectAllOptical allocates %v times at 16x16 vs %v at 8x8: allocations grow with the pairs", large, small)
	}
	t.Logf("allocs/call: %v at 8x8, %v at 16x16", small, large)
}

// TestProjectRoutersMatchesPerModel: pricing both router models from one
// turn-weight walk gives each model's ProjectAllOptical projection bit for
// bit, and a bad model anywhere in the batch fails it.
func TestProjectRoutersMatchesPerModel(t *testing.T) {
	net, tab, tm := plainMesh(t)
	models := []RouterModel{HyPPIRouter(), PhotonicRouter()}
	got, err := ProjectRouters(net, tab, tm, models, DefaultParams(), 40)
	if err != nil {
		t.Fatal(err)
	}
	for i, rm := range models {
		want, err := ProjectAllOptical(net, tab, tm, rm, DefaultParams(), 40)
		if err != nil {
			t.Fatal(err)
		}
		if !sameProjection(got[i], want) {
			t.Errorf("%v:\nbatch %+v\nalone %+v", rm.Tech, got[i], want)
		}
	}
	bad := PhotonicRouter()
	bad.ControlFJPerBit = 0
	if _, err := ProjectRouters(net, tab, tm, []RouterModel{HyPPIRouter(), bad}, DefaultParams(), 40); err == nil {
		t.Error("invalid second model accepted")
	}
}
