package noc

import (
	"fmt"
	"math/rand"

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
