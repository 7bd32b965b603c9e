// Package analytic implements the paper's Section III-B design-space
// evaluation: given a topology, a routing table and a synthetic traffic
// matrix, it computes per-channel injection rates, the network-level CLEAR
// figure of merit (eq. 2) and its four ingredients:
//
//	          (Σ_i C_i) / N
//	CLEAR = ───────────────────────────────          (eq. 2)
//	        Latency × Power × Area × R
//
// where C_i are channel capacities, Latency is the traffic-weighted
// zero-load packet head latency in clocks, Power is total (static + dynamic)
// watts at the operating injection rate, Area is silicon area, and
// R = dU/dr is the rate of growth of mean channel utilization with the
// injection rate (eq. 3) — a topology congestion figure: networks that
// saturate faster score a larger R and hence a lower CLEAR.
//
// Power uses the modified-DSENT component models; the paper argues Power
// (not energy/bit) is the estimable quantity at exploration time because
// total runtime is application dependent while power follows directly from
// the injection rate.
package analytic

import (
	"fmt"

	"repro/internal/dsent"
	"repro/internal/routing"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

// Params carries the evaluation knobs shared across the design space.
type Params struct {
	// DSENT is the component cost configuration (Table II defaults).
	DSENT dsent.Config
	// RouterPipelineClks is the router pipeline depth (Table II: 3).
	RouterPipelineClks int
}

// DefaultParams returns the Table II evaluation parameters.
func DefaultParams() Params {
	return Params{DSENT: dsent.DefaultConfig(), RouterPipelineClks: 3}
}

// Result is the evaluation of one network under one traffic matrix.
type Result struct {
	// Description names the evaluated network.
	Description string
	// CapabilityGbpsPerNode is Table III's C.
	CapabilityGbpsPerNode float64
	// AvgLatencyClks is the traffic-weighted zero-load head latency.
	AvgLatencyClks float64
	// StaticW, DynamicW and PowerW decompose total power at the
	// operating point.
	StaticW, DynamicW, PowerW float64
	// AreaM2 is total router + link silicon area.
	AreaM2 float64
	// AvgUtilization is U, the mean channel utilization.
	AvgUtilization float64
	// MaxUtilization spots congested channels (saturation indicator).
	MaxUtilization float64
	// R is dU/dr (eq. 3); utilization is linear in the injection scale,
	// so R = U / r at the operating point.
	R float64
	// CLEAR is eq. 2 evaluated in the paper's units: Gb/s, clks, W, mm².
	CLEAR float64
	// ExpressFlitFraction is the share of flit-hops riding express
	// channels (diagnostic).
	ExpressFlitFraction float64
	// MeanHops is the traffic-weighted hop count.
	MeanHops float64
}

// Evaluate runs the Section III-B analysis.
func Evaluate(net *topology.Network, tab *routing.Table, tm *traffic.Matrix, p Params) (Result, error) {
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
	// Compact per-channel view of what a route walk reads: the hottest
	// loop of a design-space sweep runs once per hop of every (src, dst)
	// pair of every design point, so it should touch a few bytes per
	// hop rather than a whole topology.Link.
	arcs := make([]arc, len(net.Links))
	for i, l := range net.Links {
		arcs[i] = arc{dst: int32(l.Dst), clks: int32(p.RouterPipelineClks + l.LatencyClks), express: l.Express}
	}

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
			// Walk the route link by link instead of materializing a
			// path slice per pair.
			hops := 0
			for at := src; at != dst; hops++ {
				lid := tab.HopID(at, dst, hops)
				if lid < 0 {
					return Result{}, fmt.Errorf("analytic: %d -> %d: %w", src, dst, tab.HopErr(at, dst, hops))
				}
				a := &arcs[lid]
				linkLoad[lid] += rate
				routerLoad[a.dst] += rate
				lat += int(a.clks)
				totalFlitHops += rate
				if a.express {
					expressFlits += rate
				}
				at = topology.NodeID(a.dst)
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

// arc is one channel as Evaluate's route walk reads it: the router it
// leads to, the head latency it adds (a router pipeline plus the channel
// latency) and whether it is an express channel.
type arc struct {
	dst     int32
	clks    int32
	express bool
}

type linkKey struct {
	t       tech.Technology
	lengthM float64
}
