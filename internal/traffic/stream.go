// Streamed traffic generators: the closed forms behind every Matrix.
//
// Every synthetic pattern (the registry's permutations, uniform, neighbor,
// hotspot and the Soteriou statistical model) is defined by a closed-form
// generator, so materializing n² entries is pure overhead — at 64×64 one
// n² matrix is 134 MB, at 256×256 it is 34 GB. A Matrix keeps the
// generator plus O(n) derived state (per-row sums) and computes rows on
// demand.
//
// Bit-exactness contract: Row, RowSum, MaxRowSum, MeanRowSum and Scaled
// reproduce bit-for-bit the values of the n² matrix the same generator
// historically materialized. Two rules make that hold:
//
//   - entries are always computed as base×scale, a single multiply per
//     entry, the same one the historical n² Scaled applied;
//   - row sums replay the left-to-right summation order of the scaled
//     row. Skipped zero entries are exact no-ops (x + 0.0 == x), so
//     generators whose rows are mostly zero (permutations, neighbor) may
//     sum only the populated entries in ascending-destination order.
package traffic

import (
	"math"

	"repro/internal/topology"
)

// generator is a streamed pattern backend: an immutable closed-form
// description of the unscaled rate matrix. Implementations must be safe for
// concurrent use (sweep jobs share matrices read-only).
type generator interface {
	// fillRow writes the unscaled row s into dst[0:n], including the zero
	// diagonal entry.
	fillRow(s int, dst []float64)
	// rowSums writes every row's sum at the given scale into dst, each
	// bit-identical to summing the scaled row left to right.
	rowSums(scale float64, dst []float64)
}

// newStreamed wraps a generator as a Matrix, precomputing the O(n) row-sum
// vector at the given scale.
func newStreamed(n int, g generator, scale float64) *Matrix {
	m := &Matrix{N: n, gen: g, scale: scale, rowSums: make([]float64, n)}
	g.rowSums(scale, m.rowSums)
	return m
}

// sumRows is the generic row-sum fallback: materialize each row into a
// scratch buffer and sum it left to right at the scale, in O(n) transient
// memory.
func sumRows(g generator, n int, scale float64, dst []float64) {
	row := make([]float64, n)
	for s := range dst {
		g.fillRow(s, row)
		var sum float64
		for _, v := range row {
			sum += v * scale
		}
		dst[s] = sum
	}
}

// uniformGen is uniform-random traffic: per to every other node.
type uniformGen struct {
	n   int
	per float64
}

func (g uniformGen) fillRow(s int, dst []float64) {
	for d := 0; d < g.n; d++ {
		if d == s {
			dst[d] = 0
		} else {
			dst[d] = g.per
		}
	}
}

func (g uniformGen) rowSums(scale float64, dst []float64) {
	// Every row is n−1 adds of the same value (the zero diagonal is an
	// exact no-op wherever it falls), so one row's sum serves all.
	v := g.per * scale
	var sum float64
	for i := 0; i < g.n-1; i++ {
		sum += v
	}
	for s := range dst {
		dst[s] = sum
	}
}

// permGen is a permutation pattern: each node sends its whole rate to one
// image node; fixed points stay silent.
type permGen struct {
	n    int
	peak float64
	to   []int32 // to[s] is the image of s (may equal s: silent)
}

func (g *permGen) fillRow(s int, dst []float64) {
	for d := range dst[:g.n] {
		dst[d] = 0
	}
	if t := int(g.to[s]); t != s {
		dst[t] = g.peak
	}
}

func (g *permGen) rowSums(scale float64, dst []float64) {
	// A row is zeros plus at most one entry: its sum is exactly that
	// entry (zero adds are exact).
	v := g.peak * scale
	for s := range dst {
		if int(g.to[s]) != s {
			dst[s] = v
		} else {
			dst[s] = 0
		}
	}
}

// neighborGen splits the rate evenly over the 2–4 mesh neighbors.
type neighborGen struct {
	net  *topology.Network
	peak float64
}

// neighbors fills buf with node s's grid neighbors in the fixed W/E/N/S
// probe order and returns the count.
func (g *neighborGen) neighbors(s int, buf *[4]int32) int {
	net := g.net
	src := topology.NodeID(s)
	x, y := net.X(src), net.Y(src)
	k := 0
	for _, c := range [4][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
		if c[0] >= 0 && c[0] < net.Width && c[1] >= 0 && c[1] < net.Height {
			buf[k] = int32(net.Node(c[0], c[1]))
			k++
		}
	}
	return k
}

func (g *neighborGen) fillRow(s int, dst []float64) {
	n := g.net.NumNodes()
	for d := range dst[:n] {
		dst[d] = 0
	}
	var buf [4]int32
	k := g.neighbors(s, &buf)
	per := g.peak / float64(k)
	for _, nb := range buf[:k] {
		dst[nb] = per
	}
}

func (g *neighborGen) rowSums(scale float64, dst []float64) {
	var buf [4]int32
	for s := range dst {
		k := g.neighbors(s, &buf)
		v := (g.peak / float64(k)) * scale
		var sum float64
		for i := 0; i < k; i++ {
			sum += v
		}
		dst[s] = sum
	}
}

// hotspotGen concentrates a fraction of each row on the hot set, the rest
// uniform (see Hotspot).
type hotspotGen struct {
	n        int
	peak     float64
	fraction float64
	hot      []topology.NodeID
	isHot    []bool
}

// split returns row s's uniform background and per-hot-destination extra;
// a source that is the only hot node spreads its whole rate uniformly.
func (g *hotspotGen) split(s int) (uniform, hotPer float64) {
	targets := 0
	for _, d := range g.hot {
		if int(d) != s {
			targets++
		}
	}
	uniform = g.peak * (1 - g.fraction) / float64(g.n-1)
	if targets > 0 {
		hotPer = g.peak * g.fraction / float64(targets)
	} else {
		uniform = g.peak / float64(g.n-1)
	}
	return uniform, hotPer
}

func (g *hotspotGen) fillRow(s int, dst []float64) {
	uniform, hotPer := g.split(s)
	for d := 0; d < g.n; d++ {
		if d == s {
			dst[d] = 0
			continue
		}
		v := uniform
		if g.isHot[d] {
			v += hotPer
		}
		dst[d] = v
	}
}

func (g *hotspotGen) rowSums(scale float64, dst []float64) {
	sumRows(g, g.n, scale, dst)
}

// soteriouGen is the streamed Soteriou statistical model: per-source
// injection rates are drawn once (O(n)); each row's truncated-geometric
// weights are recomputed on demand from the kind's Distance in O(n).
type soteriouGen struct {
	net     *topology.Network
	n       int
	maxDist int // exclusive upper bound on Distance
	p       float64
	rates   []float64 // per-source injection rate (level-scaled)
}

// rowInto writes the unscaled row s into dst using the caller's histogram
// scratch. Every entry is the historical n² builder's expression on the
// same operands (stream_test.go keeps that builder as the oracle), but it
// is evaluated once per distance rather than once per destination.
func (g *soteriouGen) rowInto(s int, dst []float64, counts []int, hopW []float64) {
	net := g.net
	src := topology.NodeID(s)
	for h := range counts {
		counts[h] = 0
	}
	// Each destination's distance is computed once and parked in its own
	// entry until the per-distance values are known (small integers are
	// exact in a float64).
	for d := 0; d < g.n; d++ {
		if d == s {
			continue
		}
		h := net.Distance(src, topology.NodeID(d))
		counts[h]++
		dst[d] = float64(h)
	}
	// Truncated geometric weight per populated distance, in fixed
	// (ascending) order for bit-exact determinism.
	var totalW float64
	for h := 1; h < g.maxDist; h++ {
		if counts[h] == 0 {
			hopW[h] = 0
			continue
		}
		w := g.p * math.Pow(1-g.p, float64(h-1))
		hopW[h] = w
		totalW += w
	}
	rate := g.rates[s]
	for h := 1; h < g.maxDist; h++ {
		if counts[h] != 0 {
			hopW[h] = rate * hopW[h] / totalW / float64(counts[h])
		}
	}
	for d := 0; d < g.n; d++ {
		if d == s {
			dst[d] = 0
			continue
		}
		dst[d] = hopW[int(dst[d])]
	}
}

// stackDist bounds the distances whose row scratch fillRow keeps on the
// stack: every grid up to W+H = 128, so streaming a row allocates nothing.
const stackDist = 128

func (g *soteriouGen) fillRow(s int, dst []float64) {
	if g.maxDist > stackDist {
		g.rowInto(s, dst, make([]int, g.maxDist), make([]float64, g.maxDist))
		return
	}
	var counts [stackDist]int
	var hopW [stackDist]float64
	g.rowInto(s, dst, counts[:g.maxDist], hopW[:g.maxDist])
}

func (g *soteriouGen) rowSums(scale float64, dst []float64) {
	row := make([]float64, g.n)
	counts := make([]int, g.maxDist)
	hopW := make([]float64, g.maxDist)
	for s := range dst {
		g.rowInto(s, row, counts, hopW)
		var sum float64
		for _, v := range row {
			sum += v * scale
		}
		dst[s] = sum
	}
}
