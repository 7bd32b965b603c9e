package optical

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/routing"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

// The historical tab.Path walks, kept verbatim as the bit-identity oracle
// for the walker: every projection must match them bit for bit, not
// within a tolerance.

// sameBits is float equality on the bit pattern, so a NaN in either form
// (a route priced as a U-turn) can only match the same NaN.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameProjection compares every Projection field bit for bit.
func sameProjection(a, b Projection) bool {
	return a.Tech == b.Tech && a.Assignment == b.Assignment &&
		sameBits(a.EnergyPerBitJ, b.EnergyPerBitJ) && sameBits(a.AreaM2, b.AreaM2) &&
		sameBits(a.LatencyClks, b.LatencyClks) && sameBits(a.MeanPathLossDB, b.MeanPathLossDB) &&
		sameBits(a.WorstPathLossDB, b.WorstPathLossDB)
}

// pathLossOracle is the historical per-pair loss walk.
func pathLossOracle(net *topology.Network, tab *routing.Table, s, d topology.NodeID,
	rm RouterModel, assign Assignment, dev tech.OpticalParams) (lossDB float64, routers int, lengthM float64) {
	lossDB = dev.Modulator.InsertionLossDB + dev.Waveguide.CouplingLossDB
	inDir := Local
	for _, lid := range tab.Path(s, d) {
		l := net.Links[lid]
		outDir := linkDirection(net, l)
		lossDB += rm.LossDB[assign[inDir]][assign[outDir]]
		routers++
		lossDB += dev.Waveguide.PropagationLossDBPerCM * (l.LengthM / units.Centimetre)
		lengthM += l.LengthM
		inDir = opposite(outDir)
	}
	lossDB += rm.LossDB[assign[inDir]][assign[Local]]
	routers++
	return lossDB, routers, lengthM
}

// turnWeightsOracle is the historical turn tally.
func turnWeightsOracle(net *topology.Network, tab *routing.Table, tm *traffic.Matrix) TurnWeights {
	var w TurnWeights
	n := net.NumNodes()
	row := make([]float64, n)
	for s := 0; s < n; s++ {
		row = tm.Row(s, row)
		for d := 0; d < n; d++ {
			rate := row[d]
			if rate == 0 || s == d {
				continue
			}
			inDir := Local
			for _, lid := range tab.Path(topology.NodeID(s), topology.NodeID(d)) {
				outDir := linkDirection(net, net.Links[lid])
				w[inDir][outDir] += rate
				inDir = opposite(outDir)
			}
			w[inDir][Local] += rate
		}
	}
	return w
}

// projectOracle is the historical ProjectAllOptical over the oracle walks,
// given the oracle's turn weights.
func projectOracle(t *testing.T, net *topology.Network, tab *routing.Table, tm *traffic.Matrix,
	w TurnWeights, rm RouterModel, p Params, elecLatencyClks float64) Projection {
	t.Helper()
	dev, err := tech.Optical(rm.Tech)
	if err != nil {
		t.Fatal(err)
	}
	assign, _ := rm.OptimalAssignment(w)
	penalty := link.ExtinctionPenalty(dev.Modulator.ExtinctionRatioDB)
	sens := dev.DetectorSensitivityW * p.LinkCapacityBps / 10e9
	eff := dev.Laser.EfficiencyPct / 100
	var eSum, wSum, lossSum, worst float64
	n := net.NumNodes()
	row := make([]float64, n)
	for s := 0; s < n; s++ {
		row = tm.Row(s, row)
		for d := 0; d < n; d++ {
			rate := row[d]
			if rate == 0 || s == d {
				continue
			}
			lossDB, _, _ := pathLossOracle(net, tab, topology.NodeID(s), topology.NodeID(d), rm, assign, dev)
			laserW := sens * penalty / units.TransmissionFromLossDB(lossDB) / eff
			perBit := laserW/p.LinkCapacityBps +
				rm.ControlFJPerBit*units.Femto
			eSum += rate * perBit
			lossSum += rate * lossDB
			wSum += rate
			if lossDB > worst {
				worst = lossDB
			}
		}
	}
	area := float64(n) * rm.AreaUM2 * units.MicrometreSq
	for _, l := range net.Links {
		area += dev.Waveguide.PitchUM * units.Micrometre * l.LengthM
	}
	area += float64(n) * (dev.Laser.AreaUM2 + dev.Modulator.AreaUM2 + dev.Detector.AreaUM2) * units.MicrometreSq
	return Projection{
		Tech:            rm.Tech,
		EnergyPerBitJ:   eSum / wSum,
		AreaM2:          area,
		LatencyClks:     elecLatencyClks * p.LatencyFactor,
		MeanPathLossDB:  lossSum / wSum,
		WorstPathLossDB: worst,
		Assignment:      assign,
	}
}

// oracleFabric is one routed network the oracle comparisons run on.
type oracleFabric struct {
	name string
	net  *topology.Network
	tab  *routing.Table
}

// oracleFabrics enumerates every registered kind on 4×4, 8×8 and 6×4 grids
// (16×16 too outside -short) with express hops 0, 3 and W−1 (the
// row-closure ring) where the kind takes express channels, a 5×3 torus, an
// 8×8 mesh closed into rings in both dimensions (hops 7), and an 8×8 mesh
// with channels masked that stays connected; each under both routing
// policies.
func oracleFabrics(t *testing.T) []oracleFabric {
	t.Helper()
	grids := [][2]int{{4, 4}, {8, 8}, {6, 4}}
	if !testing.Short() {
		grids = append(grids, [2]int{16, 16})
	}
	var out []oracleFabric
	add := func(name string, net *topology.Network) {
		for _, pol := range []routing.Policy{routing.MonotoneExpress, routing.ShortestHops} {
			tab, err := routing.Build(net, pol)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out = append(out, oracleFabric{fmt.Sprintf("%s/%v", name, pol), net, tab})
		}
	}
	for _, k := range topology.Kinds() {
		for _, g := range grids {
			for _, hops := range []int{0, 3, g[0] - 1} {
				if hops == 3 && g[0]-1 == 3 {
					continue // W−1 covers it
				}
				c := topology.DefaultConfig()
				c.Kind, c.Width, c.Height = k, g[0], g[1]
				c.ExpressHops, c.ExpressTech = hops, tech.HyPPI
				net, err := topology.Build(c)
				if err != nil {
					if hops == 0 {
						t.Fatalf("%v %dx%d: %v", k, g[0], g[1], err)
					}
					continue // the kind takes no express channels
				}
				add(fmt.Sprintf("%v/%dx%d/h%d", k, g[0], g[1], hops), net)
			}
		}
	}
	c := topology.DefaultConfig()
	c.Kind, c.Width, c.Height = topology.Torus, 5, 3
	add("torus/5x3", topology.MustBuild(c))
	c = topology.DefaultConfig()
	c.Width, c.Height, c.ExpressHops, c.ExpressTech, c.ExpressBothDims = 8, 8, 7, tech.HyPPI, true
	add("mesh/8x8/h7/2d", topology.MustBuild(c))
	c = topology.DefaultConfig()
	c.Width, c.Height, c.ExpressHops, c.ExpressTech = 8, 8, 3, tech.HyPPI
	net := topology.MustBuild(c)
	down := make([]bool, len(net.Links))
	for _, l := range net.Links {
		// Every express channel out of the first row and the base
		// channels into node (3,3): detours, but still connected.
		if (l.Express && net.Y(l.Src) == 0) || (!l.Express && l.Dst == net.Node(3, 3) && l.Src != net.Node(2, 3)) {
			down[l.ID] = true
		}
	}
	masked, err := net.MaskLinks(down)
	if err != nil {
		t.Fatal(err)
	}
	add("masked/mesh/8x8/h3", masked)
	return out
}

// TestWalkerMatchesPathOracle: the walker's turn weights, every pair's
// path loss and both routers' projections are bit-identical to the
// historical tab.Path walks on every oracle fabric, and every projection is
// finite: a route across a torus wrap or a row-closure express carries on
// the way it was going, never priced as a U-turn, whose loss is NaN. The
// masked fabric's detours do reverse, and its projection fails with
// ErrUTurn instead of returning NaN.
func TestWalkerMatchesPathOracle(t *testing.T) {
	p := DefaultParams()
	for _, f := range oracleFabrics(t) {
		tm := traffic.MustSoteriou(f.net, traffic.DefaultSoteriou())
		wantW := turnWeightsOracle(f.net, f.tab, tm)
		for _, rm := range []RouterModel{HyPPIRouter(), PhotonicRouter()} {
			dev, err := tech.Optical(rm.Tech)
			if err != nil {
				t.Fatal(err)
			}
			wk := newWalker(f.net, f.tab, dev)
			w, err := wk.turnWeights(tm)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			if w != wantW {
				t.Fatalf("%s: turn weights %v, oracle %v", f.name, w, wantW)
			}
			assign, _ := rm.OptimalAssignment(w)
			var turnLoss [NumPorts][NumPorts]float64
			for i := range turnLoss {
				for j := range turnLoss[i] {
					turnLoss[i][j] = rm.LossDB[assign[i]][assign[j]]
				}
			}
			sourceDB := dev.Modulator.InsertionLossDB + dev.Waveguide.CouplingLossDB
			n := f.net.NumNodes()
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if s == d {
						continue // no route: the Local→Local U-turn is NaN
					}
					src, dst := topology.NodeID(s), topology.NodeID(d)
					lossDB, routers, err := wk.pathLoss(src, dst, &turnLoss, sourceDB)
					if err != nil {
						t.Fatalf("%s: %v", f.name, err)
					}
					wantDB, wantRouters, _ := pathLossOracle(f.net, f.tab, src, dst, rm, assign, dev)
					if !sameBits(lossDB, wantDB) || routers != wantRouters {
						t.Fatalf("%s %v: %d -> %d loss %v dB over %d routers, oracle %v over %d",
							f.name, rm.Tech, s, d, lossDB, routers, wantDB, wantRouters)
					}
				}
			}
			got, err := ProjectAllOptical(f.net, f.tab, tm, rm, p, 42.5)
			want := projectOracle(t, f.net, f.tab, tm, wantW, rm, p, 42.5)
			if strings.HasPrefix(f.name, "masked/") {
				// Its detours reverse (east on base channels, then west
				// on an express one): a true U-turn in the
				// five-direction router model, which the oracle prices
				// as NaN and the projection refuses.
				if !errors.Is(err, ErrUTurn) || !math.IsNaN(want.MeanPathLossDB) {
					t.Fatalf("%s %v: err %v, oracle mean loss %v; want ErrUTurn over a NaN oracle",
						f.name, rm.Tech, err, want.MeanPathLossDB)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			if !sameProjection(got, want) {
				t.Fatalf("%s %v: projection\n%+v\noracle\n%+v", f.name, rm.Tech, got, want)
			}
			for _, v := range []float64{got.EnergyPerBitJ, got.MeanPathLossDB, got.WorstPathLossDB} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s %v: non-finite projection %+v", f.name, rm.Tech, got)
				}
			}
		}
	}
}
