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
	"slices"

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

// Evaluate runs the Section III-B analysis. It is the one-network case of
// EvaluateShared.
func Evaluate(net *topology.Network, tab *routing.Table, tm *traffic.Matrix, p Params) (Result, error) {
	res, err := EvaluateShared([]*topology.Network{net}, tab, tm, p)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// EvaluateShared runs the Section III-B analysis on several networks in
// one route walk. The networks must share one wiring
// (topology.Network.SameWiring) and tab must route every one of them, as
// it does when their tables agree (routing.Table.SameRoutes): the
// technology variants of one geometry under one policy, say. Channel and
// router loads, hop counts and express shares then depend only on the
// shared routes and traffic, so the walk accumulates them once; each
// distinct per-channel latency vector among the networks keeps its own
// latency sum. Every sum adds in the (source, destination, hop) order of
// a walk over one network, so each Result is bit-identical to evaluating
// its network alone.
func EvaluateShared(nets []*topology.Network, tab *routing.Table, tm *traffic.Matrix, p Params) ([]Result, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("analytic: no networks to evaluate")
	}
	if err := p.DSENT.Validate(); err != nil {
		return nil, err
	}
	if p.RouterPipelineClks <= 0 {
		return nil, fmt.Errorf("analytic: non-positive pipeline depth %d", p.RouterPipelineClks)
	}
	net := nets[0]
	if tm.N != net.NumNodes() {
		return nil, fmt.Errorf("analytic: traffic for %d nodes on %d-node network", tm.N, net.NumNodes())
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	for _, m := range nets[1:] {
		if !net.SameWiring(m) {
			return nil, fmt.Errorf("analytic: %v is not wired like %v", m, net)
		}
	}

	lats := newLatencies(nets, p.RouterPipelineClks)
	w, err := walkRoutes(net, tab, tm, p.RouterPipelineClks, lats)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(nets))
	for i, m := range nets {
		if out[i], err = w.result(m, w.latSum[lats.of[i]], tm, p.DSENT); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// latencies are the distinct per-channel head latencies (a router
// pipeline plus the channel latency) of a batch of networks, interleaved
// by channel: clks[lid*count+v] is channel lid's latency in vector v, so a
// hop reads all of its latencies from one place. of[i] is network i's
// vector.
type latencies struct {
	count int
	clks  []int32
	of    []int
}

func newLatencies(nets []*topology.Network, pipelineClks int) latencies {
	links := len(nets[0].Links)
	// vecs holds the distinct vectors back to back: each network's vector
	// is written after them and kept only when it is new.
	vecs := make([]int32, links*len(nets))
	of := make([]int, len(nets))
	count := 0
	for i, net := range nets {
		vec := vecs[count*links : (count+1)*links]
		for lid, l := range net.Links {
			vec[lid] = int32(pipelineClks + l.LatencyClks)
		}
		of[i] = count
		for v := range count {
			if slices.Equal(vecs[v*links:(v+1)*links], vec) {
				of[i] = v
				break
			}
		}
		if of[i] == count {
			count++
		}
	}
	if count == 1 {
		return latencies{count: 1, clks: vecs[:links], of: of}
	}
	clks := make([]int32, links*count)
	for v := range count {
		for lid, c := range vecs[v*links : (v+1)*links] {
			clks[lid*count+v] = c
		}
	}
	return latencies{count: count, clks: clks, of: of}
}

// walk is what one pass over every routed (source, destination) pair
// accumulates: the loads and sums a network's Result is priced from.
type walk struct {
	linkLoad   []float64 // flits/cycle per channel
	routerLoad []float64 // flit traversals/cycle per router
	// latSum holds one traffic-weighted latency sum per latency vector.
	latSum                                       []float64
	rateSum, hopSum, expressFlits, totalFlitHops float64
}

// walkRoutes walks every route of tab once, in (source, destination, hop)
// order, accumulating loads and one latency sum per vector of lats.
func walkRoutes(net *topology.Network, tab *routing.Table, tm *traffic.Matrix, pipelineClks int, lats latencies) (walk, error) {
	n, links := net.NumNodes(), len(net.Links)
	// One allocation backs the float accumulators and the rate row.
	buf := make([]float64, links+n+lats.count+n)
	w := walk{
		linkLoad:   buf[:links:links],
		routerLoad: buf[links : links+n : links+n],
		latSum:     buf[links+n : links+n+lats.count : links+n+lats.count],
	}
	row := buf[links+n+lats.count:] // reusable per-source rate row (matrices stream rows on demand)
	// Compact per-channel view of what a route walk reads: the hottest
	// loop of a design-space sweep runs once per hop of every (src, dst)
	// pair, so it should touch a few bytes per hop rather than a whole
	// topology.Link.
	arcs := make([]arc, len(net.Links))
	for i, l := range net.Links {
		arcs[i] = arc{dst: int32(l.Dst), express: l.Express}
	}
	nv, clks := lats.count, lats.clks
	lat := make([]int, nv) // the current pair's latency in each vector
	for s := 0; s < n; s++ {
		src := topology.NodeID(s)
		row = tm.Row(s, row)
		for d := 0; d < n; d++ {
			rate := row[d]
			if rate == 0 || s == d {
				continue
			}
			dst := topology.NodeID(d)
			for v := range lat {
				lat[v] = pipelineClks // ejection router
			}
			w.routerLoad[s] += rate
			// Walk the route link by link instead of materializing a
			// path slice per pair.
			hops := 0
			for at := src; at != dst; hops++ {
				lid := tab.HopID(at, dst, hops)
				if lid < 0 {
					return walk{}, fmt.Errorf("analytic: %d -> %d: %w", src, dst, tab.HopErr(at, dst, hops))
				}
				a := &arcs[lid]
				w.linkLoad[lid] += rate
				w.routerLoad[a.dst] += rate
				if nv == 1 { // every Evaluate call: no vector loop per hop
					lat[0] += int(clks[lid])
				} else {
					for v, c := range clks[int(lid)*nv : int(lid)*nv+nv] {
						lat[v] += int(c)
					}
				}
				w.totalFlitHops += rate
				if a.express {
					w.expressFlits += rate
				}
				at = topology.NodeID(a.dst)
			}
			for v, l := range lat {
				w.latSum[v] += rate * float64(l)
			}
			w.hopSum += rate * float64(hops)
			w.rateSum += rate
		}
	}
	if w.rateSum == 0 {
		return walk{}, fmt.Errorf("analytic: empty traffic matrix")
	}
	return w, nil
}

// result prices the walk's loads on one network: utilization, component
// costs and CLEAR, with latSum the network's latency sum.
func (w *walk) result(net *topology.Network, latSum float64, tm *traffic.Matrix, cfg dsent.Config) (Result, error) {
	n := net.NumNodes()
	// Utilization: channels carry one flit per cycle at capacity.
	var uSum, uMax float64
	for _, u := range w.linkLoad {
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
	clk := cfg.ClockHz
	linkCosts := make(map[linkKey]dsent.LinkCost)
	for i, l := range net.Links {
		k := linkKey{l.Tech, l.LengthM}
		lc, ok := linkCosts[k]
		if !ok {
			var err error
			lc, err = dsent.Link(cfg, l.Tech, l.LengthM)
			if err != nil {
				return Result{}, err
			}
			linkCosts[k] = lc
		}
		staticW += lc.StaticW
		areaM2 += lc.AreaM2
		dynamicW += w.linkLoad[i] * clk * lc.DynamicJPerFlit
	}
	routerCosts := make(map[int]dsent.RouterCost)
	for id := 0; id < n; id++ {
		ports := net.Ports(topology.NodeID(id))
		rc, ok := routerCosts[ports]
		if !ok {
			rc = dsent.ElectronicRouter(cfg, ports)
			routerCosts[ports] = rc
		}
		staticW += rc.StaticW
		areaM2 += rc.AreaM2
		dynamicW += w.routerLoad[id] * clk * rc.DynamicJPerFlit
	}

	res := Result{
		Description:           net.String(),
		CapabilityGbpsPerNode: net.CapabilityGbpsPerNode(),
		AvgLatencyClks:        latSum / w.rateSum,
		StaticW:               staticW,
		DynamicW:              dynamicW,
		PowerW:                staticW + dynamicW,
		AreaM2:                areaM2,
		AvgUtilization:        avgU,
		MaxUtilization:        uMax,
		R:                     R,
		MeanHops:              w.hopSum / w.rateSum,
	}
	if w.totalFlitHops > 0 {
		res.ExpressFlitFraction = w.expressFlits / w.totalFlitHops
	}
	res.CLEAR = res.CapabilityGbpsPerNode /
		(res.AvgLatencyClks * res.PowerW * (res.AreaM2 / units.MillimetreSq) * res.R)
	return res, nil
}

// arc is one channel as the route walk reads it: the router it leads to
// and whether it is an express channel.
type arc struct {
	dst     int32
	express bool
}

type linkKey struct {
	t       tech.Technology
	lengthM float64
}
