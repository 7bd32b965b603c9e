package analytic

import (
	"fmt"
	"testing"

	"repro/internal/dsent"
	"repro/internal/routing"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

// evaluateOracle is the historical Evaluate, walking every route through
// routing.Table.Hop over the full topology.Link records; kept verbatim as
// the bit-identity oracle for the compact-arc walk.
func evaluateOracle(net *topology.Network, tab *routing.Table, tm *traffic.Matrix, p Params) (Result, error) {
	if err := p.DSENT.Validate(); err != nil {
		return Result{}, err
	}
	if p.RouterPipelineClks <= 0 {
		return Result{}, fmt.Errorf("analytic: non-positive pipeline depth %d", p.RouterPipelineClks)
	}
	if tm.N != net.NumNodes() {
		return Result{}, fmt.Errorf("analytic: traffic for %d nodes on %d-node network", tm.N, net.NumNodes())
	}
	if err := tm.Validate(); err != nil {
		return Result{}, err
	}

	n := net.NumNodes()
	linkLoad := make([]float64, len(net.Links)) // flits/cycle per channel
	routerLoad := make([]float64, n)            // flit traversals/cycle per router

	var latSum, rateSum, hopSum, expressFlits, totalFlitHops float64
	row := make([]float64, n) // reusable per-source rate row (matrices stream rows on demand)
	for s := 0; s < n; s++ {
		src := topology.NodeID(s)
		row = tm.Row(s, row)
		for d := 0; d < n; d++ {
			rate := row[d]
			if rate == 0 || s == d {
				continue
			}
			dst := topology.NodeID(d)
			lat := p.RouterPipelineClks // ejection router
			routerLoad[s] += rate
			// Walk the route link by link instead of materializing
			// tab.Path: this loop runs for every (src, dst) pair of
			// every design point, and the per-pair path slices used
			// to dominate a sweep's allocations.
			hops := 0
			for at := src; at != dst; {
				l := tab.Hop(at, dst, hops)
				if l == nil {
					return Result{}, fmt.Errorf("analytic: %d -> %d: %w", src, dst, tab.HopErr(at, dst, hops))
				}
				linkLoad[l.ID] += rate
				routerLoad[l.Dst] += rate
				lat += p.RouterPipelineClks + l.LatencyClks
				totalFlitHops += rate
				if l.Express {
					expressFlits += rate
				}
				at = l.Dst
				hops++
			}
			latSum += rate * float64(lat)
			hopSum += rate * float64(hops)
			rateSum += rate
		}
	}
	if rateSum == 0 {
		return Result{}, fmt.Errorf("analytic: empty traffic matrix")
	}

	// Utilization: channels carry one flit per cycle at capacity.
	var uSum, uMax float64
	for _, u := range linkLoad {
		uSum += u
		if u > uMax {
			uMax = u
		}
	}
	avgU := uSum / float64(len(net.Links))
	r := tm.MaxRowSum()
	R := avgU / r

	// Component costs.
	var staticW, areaM2, dynamicW float64
	clk := p.DSENT.ClockHz
	linkCosts := make(map[linkKey]dsent.LinkCost)
	for i, l := range net.Links {
		k := linkKey{l.Tech, l.LengthM}
		lc, ok := linkCosts[k]
		if !ok {
			var err error
			lc, err = dsent.Link(p.DSENT, l.Tech, l.LengthM)
			if err != nil {
				return Result{}, err
			}
			linkCosts[k] = lc
		}
		staticW += lc.StaticW
		areaM2 += lc.AreaM2
		dynamicW += linkLoad[i] * clk * lc.DynamicJPerFlit
	}
	routerCosts := make(map[int]dsent.RouterCost)
	for id := 0; id < n; id++ {
		ports := net.Ports(topology.NodeID(id))
		rc, ok := routerCosts[ports]
		if !ok {
			rc = dsent.ElectronicRouter(p.DSENT, ports)
			routerCosts[ports] = rc
		}
		staticW += rc.StaticW
		areaM2 += rc.AreaM2
		dynamicW += routerLoad[id] * clk * rc.DynamicJPerFlit
	}

	res := Result{
		Description:           net.String(),
		CapabilityGbpsPerNode: net.CapabilityGbpsPerNode(),
		AvgLatencyClks:        latSum / rateSum,
		StaticW:               staticW,
		DynamicW:              dynamicW,
		PowerW:                staticW + dynamicW,
		AreaM2:                areaM2,
		AvgUtilization:        avgU,
		MaxUtilization:        uMax,
		R:                     R,
		MeanHops:              hopSum / rateSum,
	}
	if totalFlitHops > 0 {
		res.ExpressFlitFraction = expressFlits / totalFlitHops
	}
	res.CLEAR = res.CapabilityGbpsPerNode /
		(res.AvgLatencyClks * res.PowerW * (res.AreaM2 / units.MillimetreSq) * res.R)
	return res, nil
}

// oracleFabric is one routed network the oracle comparison runs on.
type oracleFabric struct {
	name string
	net  *topology.Network
	tab  *routing.Table
}

// oracleFabrics enumerates every registered kind on 4×4, 8×8 and 6×4 grids
// (16×16 too outside -short) with express hops 0, 3 and W−1 (the
// row-closure ring) where the kind takes express channels, plus an 8×8
// mesh with channels masked that stays connected; each under both routing
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

// TestEvaluateMatchesHopOracle: Evaluate's Result is bit-identical, field
// for field, to the historical Hop walk on every oracle fabric.
func TestEvaluateMatchesHopOracle(t *testing.T) {
	p := DefaultParams()
	for _, f := range oracleFabrics(t) {
		tm := traffic.MustSoteriou(f.net, traffic.DefaultSoteriou())
		got, err := Evaluate(f.net, f.tab, tm, p)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		want, err := evaluateOracle(f.net, f.tab, tm, p)
		if err != nil {
			t.Fatalf("%s: oracle: %v", f.name, err)
		}
		if got != want {
			t.Fatalf("%s: result\n%+v\noracle\n%+v", f.name, got, want)
		}
	}
}
