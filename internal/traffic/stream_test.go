package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/topology"
)

// denseSoteriouReference is the historical n² Soteriou builder, kept
// verbatim as the bit-exactness oracle for the streamed implementation.
func denseSoteriouReference(t *testing.T, net *topology.Network, cfg SoteriouConfig) [][]float64 {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n := net.NumNodes()
	rng := rand.New(rand.NewSource(cfg.Seed))
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
		t.Fatal("degenerate draw")
	}
	m := make([][]float64, n)
	maxDist := net.Width + net.Height
	counts := make([]int, maxDist)
	hopW := make([]float64, maxDist)
	for s := 0; s < n; s++ {
		m[s] = make([]float64, n)
		src := topology.NodeID(s)
		for h := range counts {
			counts[h] = 0
		}
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			counts[net.Distance(src, topology.NodeID(d))]++
		}
		var totalW float64
		for h := 1; h < maxDist; h++ {
			if counts[h] == 0 {
				hopW[h] = 0
				continue
			}
			w := cfg.P * math.Pow(1-cfg.P, float64(h-1))
			hopW[h] = w
			totalW += w
		}
		rate := cfg.MaxInjectionRate * levels[s] / maxLevel
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			h := net.Distance(src, topology.NodeID(d))
			m[s][d] = rate * hopW[h] / totalW / float64(counts[h])
		}
	}
	return m
}

// denseRows materializes every row of m into its own fresh buffer.
func denseRows(m *Matrix) [][]float64 {
	out := make([][]float64, m.N)
	for s := range out {
		out[s] = m.Row(s, nil)
	}
	return out
}

// denseRowSum sums a row left to right, as the historical n² RowSum did.
func denseRowSum(row []float64) float64 {
	var sum float64
	for _, v := range row {
		sum += v
	}
	return sum
}

// denseMaxRowSum is the highest left-to-right row sum.
func denseMaxRowSum(rows [][]float64) float64 {
	var max float64
	for _, row := range rows {
		if r := denseRowSum(row); r > max {
			max = r
		}
	}
	return max
}

// denseScaled multiplies every entry once by f, as the historical n²
// Scaled did.
func denseScaled(rows [][]float64, f float64) [][]float64 {
	out := make([][]float64, len(rows))
	for s, row := range rows {
		out[s] = make([]float64, len(row))
		for d, v := range row {
			out[s][d] = v * f
		}
	}
	return out
}

// requireRowsEqual fails unless m's rows, row sums and max row sum are
// bit-identical to the dense reference.
func requireRowsEqual(t *testing.T, name string, m *Matrix, dense [][]float64) {
	t.Helper()
	row := make([]float64, m.N)
	for s := range dense {
		row = m.Row(s, row)
		for d, want := range dense[s] {
			if row[d] != want {
				t.Fatalf("%s: entry [%d][%d] = %v, dense reference %v", name, s, d, row[d], want)
			}
		}
		if got, want := m.RowSum(s), denseRowSum(dense[s]); got != want {
			t.Fatalf("%s: row sum %d = %v, dense reference %v", name, s, got, want)
		}
	}
	if got, want := m.MaxRowSum(), denseMaxRowSum(dense); got != want {
		t.Fatalf("%s: max row sum %v, dense reference %v", name, got, want)
	}
}

// TestSoteriouStreamedBitIdentical: the streamed Soteriou matches the
// historical n² builder bit for bit — entries, row sums, max row sum, and
// one ScaledToMaxRate step (the sweep idiom) — on every topology kind
// (each has its own Distance) at 16×16 and on a rectangular grid.
func TestSoteriouStreamedBitIdentical(t *testing.T) {
	cfg := DefaultSoteriou()
	for _, k := range topology.Kinds() {
		for _, g := range [][2]int{{16, 16}, {7, 4}} {
			c := topology.DefaultConfig()
			c.Kind, c.Width, c.Height = k, g[0], g[1]
			net, err := topology.Build(c)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("soteriou %v %dx%d", k, g[0], g[1])
			streamed := MustSoteriou(net, cfg)
			dense := denseSoteriouReference(t, net, cfg)
			requireRowsEqual(t, name, streamed, dense)
			requireRowsEqual(t, "scaled "+name, streamed.ScaledToMaxRate(0.05),
				denseScaled(dense, 0.05/denseMaxRowSum(dense)))
		}
	}
}

// TestStreamedAccessorsConsistent: for every registry pattern (and
// Soteriou) on square and rectangular grids, the accessors agree among
// themselves — Row into a reused dirty buffer matches Row into a fresh
// one, RowSum is bit-identical to a left-to-right row sum, and one
// scaling step is bit-identical to scaling each entry once.
func TestStreamedAccessorsConsistent(t *testing.T) {
	for _, g := range [][2]int{{4, 4}, {8, 8}, {5, 3}} {
		net := grid(t, g[0], g[1])
		mats := map[string]*Matrix{"soteriou": MustSoteriou(net, DefaultSoteriou())}
		for _, p := range Patterns() {
			m, err := p.Generate(net, 0.1)
			if err != nil {
				continue // structural precondition, covered elsewhere
			}
			mats[p.Name()] = m
		}
		for name, m := range mats {
			dense := denseRows(m)
			// A reused buffer full of stale garbage must be overwritten
			// entirely, diagonal included.
			dirty := make([]float64, m.N)
			for i := range dirty {
				dirty[i] = math.NaN()
			}
			for s := 0; s < m.N; s++ {
				dirty = m.Row(s, dirty)
				for d := range dirty {
					if dirty[d] != dense[s][d] {
						t.Fatalf("%s: reused Row diverges at [%d][%d]: %v vs %v",
							name, s, d, dirty[d], dense[s][d])
					}
					dirty[d] = math.NaN()
				}
				if dense[s][s] != 0 {
					t.Fatalf("%s: self traffic %v at node %d", name, dense[s][s], s)
				}
			}
			requireRowsEqual(t, name, m, dense)
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireRowsEqual(t, name+" scaled", m.Scaled(0.37), denseScaled(dense, 0.37))
		}
	}
}

// TestStreamedMemoryStaysLinear: generating, scaling and validating every
// pattern (and Soteriou) at 64×64 must not allocate anything near the
// 134 MB an n² matrix would take.
func TestStreamedMemoryStaysLinear(t *testing.T) {
	c := topology.DefaultConfig()
	c.Width, c.Height = 64, 64
	net, err := topology.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	// Far above the O(n) state every generator keeps, far below n² floats.
	limit := uint64(64 * net.NumNodes() * 8)
	check := func(name string, gen func() (*Matrix, error)) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := gen()
		if err != nil {
			t.Fatalf("%s must support 64x64: %v", name, err)
		}
		scaled := m.ScaledToMaxRate(0.01)
		runtime.ReadMemStats(&after)
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := scaled.Validate(); err != nil {
			t.Errorf("%s scaled: %v", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s: generating and scaling allocated %d bytes, want ≤ %d", name, got, limit)
		}
	}
	for _, p := range Patterns() {
		check(p.Name(), func() (*Matrix, error) { return p.Generate(net, 0.1) })
	}
	check("soteriou", func() (*Matrix, error) { return Soteriou(net, DefaultSoteriou()) })
}
