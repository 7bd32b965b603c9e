package noc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BernoulliWorkload generates open-loop random packet arrivals from a
// traffic rate matrix: each cycle, node s starts a new packet with
// probability RowSum(s)/sizeFlits (so the injected flit rate matches the
// matrix), destination drawn from the row's distribution. This is the
// standard open-loop load-latency methodology (BookSim's injection mode),
// complementing trace-driven runs.
type BernoulliWorkload struct {
	// SizeFlits is the fixed packet length.
	SizeFlits int
	// Cycles is the generation horizon.
	Cycles int64
	// Seed drives the deterministic arrival process.
	Seed int64
}

// Generate draws the packet list for a network and rate matrix.
func (w BernoulliWorkload) Generate(net *topology.Network, tm *traffic.Matrix) ([]Packet, error) {
	if w.SizeFlits <= 0 || w.Cycles <= 0 {
		return nil, fmt.Errorf("noc: invalid workload %+v", w)
	}
	if tm.N != net.NumNodes() {
		return nil, fmt.Errorf("noc: traffic for %d nodes on %d-node network", tm.N, net.NumNodes())
	}
	rng := rand.New(rand.NewSource(w.Seed))
	n := net.NumNodes()

	rowRate := make([]float64, n)
	for s := 0; s < n; s++ {
		rowRate[s] = tm.RowSum(s)
	}

	// One reusable cumulative-distribution buffer: each source's row is
	// materialized, prefix-summed in place, sampled, then overwritten by
	// the next source — O(n) memory where the per-source tables were
	// O(n²). The RNG consumption and sampled values are unchanged.
	cum := make([]float64, n)
	var pkts []Packet
	for s := 0; s < n; s++ {
		if rowRate[s] == 0 {
			continue
		}
		pPkt := rowRate[s] / float64(w.SizeFlits)
		if pPkt > 1 {
			return nil, fmt.Errorf("noc: node %d rate %v exceeds 1 packet/cycle", s, pPkt)
		}
		cum = tm.Row(s, cum)
		acc := 0.0
		for d := 0; d < n; d++ {
			acc += cum[d]
			cum[d] = acc
		}
		for cyc := int64(0); cyc < w.Cycles; cyc++ {
			if rng.Float64() >= pPkt {
				continue
			}
			// Sample the destination from the cumulative row.
			x := rng.Float64() * rowRate[s]
			d := searchCum(cum, x)
			if d == s {
				continue // degenerate row; skip self traffic
			}
			pkts = append(pkts, Packet{
				Src:       topology.NodeID(s),
				Dst:       topology.NodeID(d),
				SizeFlits: w.SizeFlits,
				Release:   cyc,
			})
		}
	}
	return pkts, nil
}

// searchCum returns the first index whose cumulative value exceeds x.
func searchCum(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// LoadPoint is one sample of a load-latency curve.
type LoadPoint struct {
	// InjectionRate is the offered max per-node rate in flits/cycle.
	InjectionRate float64
	// AvgLatencyClks and P99LatencyClks summarize packet latency.
	AvgLatencyClks, P99LatencyClks float64
	// Saturated marks points that failed to drain within the cycle cap
	// (offered load beyond network capacity).
	Saturated bool
}

// LoadLatencyCurve sweeps the offered injection rate over `rates`, running
// a Bernoulli workload per point, and returns the classic load-latency
// curve used to locate network saturation. Points that fail to drain within
// the configured MaxCycles are flagged Saturated rather than failing the
// sweep. It is a thin wrapper over LoadLatencyCurveContext with a
// default-sized worker pool and a private Sim reuse pool; each rate is an
// independent deterministic simulation, so the curve is bit-identical to
// the historical serial sweep.
func LoadLatencyCurve(net *topology.Network, tab *routing.Table, base *traffic.Matrix,
	rates []float64, w BernoulliWorkload, cfg Config) ([]LoadPoint, error) {
	return LoadLatencyCurveContext(context.Background(), net, tab, base, rates, w, cfg,
		runner.Config{}, NewSimPool())
}

// LoadLatencyCurveContext is LoadLatencyCurve on an explicit context,
// worker-pool configuration and Sim reuse pool: rates run concurrently,
// each worker recycling simulators through sims (nil disables reuse).
// The shared network, table and base matrix are only read.
func LoadLatencyCurveContext(ctx context.Context, net *topology.Network, tab *routing.Table,
	base *traffic.Matrix, rates []float64, w BernoulliWorkload, cfg Config,
	pool runner.Config, sims *SimPool) ([]LoadPoint, error) {
	return runner.Map(ctx, len(rates), pool, func(_ context.Context, i int) (LoadPoint, error) {
		return loadPoint(net, tab, base, rates[i], w, cfg, sims)
	})
}

// loadPoint runs one offered-load sample: scale the base matrix to the
// rate, draw the Bernoulli arrivals, simulate, summarize. The simulator
// comes from (and returns to, on every path) the reuse pool.
func loadPoint(net *topology.Network, tab *routing.Table, base *traffic.Matrix,
	rate float64, w BernoulliWorkload, cfg Config, sims *SimPool) (LoadPoint, error) {
	tm := base.ScaledToMaxRate(rate)
	pkts, err := w.Generate(net, tm)
	if err != nil {
		return LoadPoint{}, err
	}
	sim, err := sims.Get(net, tab, cfg)
	if err != nil {
		return LoadPoint{}, err
	}
	defer sims.Put(sim)
	if err := sim.InjectAll(pkts); err != nil {
		return LoadPoint{}, err
	}
	st, err := sim.Run()
	pt := LoadPoint{InjectionRate: rate}
	if err != nil {
		if !errors.Is(err, ErrSaturated) {
			return LoadPoint{}, err
		}
		pt.Saturated = true
	} else {
		pt.AvgLatencyClks = st.AvgPacketLatencyClks
		pt.P99LatencyClks = st.P99PacketLatencyClks
	}
	return pt, nil
}

// SaturationLatencyFactor defines the latency-knee rule used by
// DetectSaturation: a pattern's saturation throughput is the lowest
// offered load whose average packet latency exceeds this multiple of the
// curve's zero-load latency (the first swept point), or that fails to
// drain within the cycle cap. 3× is the conventional knee threshold in
// NoC load-latency methodology — past it, queueing delay dominates and
// latency grows without bound.
const SaturationLatencyFactor = 3.0

// DetectSaturation applies the latency-knee rule to a load-latency curve
// sampled at ascending rates. It returns the offered injection rate of
// the first saturated point. A curve whose lowest rate already fails to
// drain reports that rate with atFloor set: the true knee lies at or
// below the sweep floor, so the returned rate is an upper bound on
// capacity, not a measurement — consumers must render it "≤ rate", never
// as a measured throughput. An interior knee (the rule firing past the
// first point, including a first point whose latency merely trips the
// knee on a later comparison) reports atFloor false. ok is false only
// when the curve is empty or never saturates within the swept range (the
// returned rate is then zero and atFloor is false).
func DetectSaturation(points []LoadPoint) (rate float64, atFloor, ok bool) {
	if len(points) == 0 {
		return 0, false, false
	}
	if points[0].Saturated {
		return points[0].InjectionRate, true, true
	}
	base := points[0].AvgLatencyClks
	for _, p := range points[1:] {
		if p.Saturated || p.AvgLatencyClks > SaturationLatencyFactor*base {
			return p.InjectionRate, false, true
		}
	}
	return 0, false, false
}
