package taskgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// insertionTopoOrder is the sorted-insertion Kahn order TopoOrder used
// before its ready set became a heap: the frontier is a slice kept sorted
// descending, so every release shifts each smaller ready index. It is the
// oracle the heap must reproduce exactly, order and cycle error alike.
func insertionTopoOrder(g *Graph) ([]int, error) {
	n := len(g.Messages)
	indeg := make([]int, n)
	succ := make([][]int32, n)
	for i, m := range g.Messages {
		indeg[i] = len(m.Deps)
		for _, d := range m.Deps {
			succ[d] = append(succ[d], int32(i))
		}
	}
	var ready []int
	for i := n - 1; i >= 0; i-- {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, i)
		for _, s := range succ[i] {
			indeg[s]--
			if indeg[s] == 0 {
				j := len(ready)
				ready = append(ready, int(s))
				for j > 0 && ready[j-1] < int(s) {
					ready[j] = ready[j-1]
					j--
				}
				ready[j] = int(s)
			}
		}
	}
	if len(order) != n {
		for i := range indeg {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("taskgraph: dependency cycle through message %d (%d->%d)",
					i, g.Messages[i].Src, g.Messages[i].Dst)
			}
		}
	}
	return order, nil
}

// checkAgainstOracle fails t unless TopoOrder and the insertion oracle
// agree on g: the same order, or the same cycle error.
func checkAgainstOracle(t *testing.T, name string, g *Graph) {
	t.Helper()
	got, gotErr := g.TopoOrder()
	want, wantErr := insertionTopoOrder(g)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: TopoOrder error %v, oracle %v", name, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: TopoOrder differs from the insertion oracle\n got %v\nwant %v", name, got, want)
	}
}

// randomGraph draws a graph of n messages whose dependencies point to
// lower indices (a DAG). With back > 0 it also adds that many edges to a
// higher index, which may close cycles. Duplicate dependencies are kept:
// both orders must count them the same way.
func randomGraph(rng *rand.Rand, n, back int) *Graph {
	g := &Graph{NumNodes: 4, Messages: make([]Message, n)}
	for i := range g.Messages {
		m := msg(rng.Intn(4), rng.Intn(4), 1, 0)
		for k := rng.Intn(4); k > 0 && i > 0; k-- {
			m.Deps = append(m.Deps, rng.Intn(i))
		}
		g.Messages[i] = m
	}
	for ; back > 0 && n > 1; back-- {
		i := rng.Intn(n - 1)
		g.Messages[i].Deps = append(g.Messages[i].Deps, i+1+rng.Intn(n-1-i))
	}
	return g
}

// TestTopoOrderMatchesInsertionOracle: the heap must give exactly the
// order, and exactly the cycle error, of the insertion frontier it
// replaced, on random DAGs, on random graphs that may hold cycles, and on
// every registered generator at the sizes the sweeps and the collectives
// benchmark use.
func TestTopoOrderMatchesInsertionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		back := 0
		if trial%3 == 0 {
			back = 1 + rng.Intn(3)
		}
		checkAgainstOracle(t, fmt.Sprintf("random trial %d (n=%d, back=%d)", trial, n, back),
			randomGraph(rng, n, back))
	}
	sizes := []int{16, 144, 256}
	if testing.Short() {
		sizes = sizes[:2] // the oracle is quadratic: moe-alltoall at 256 nodes takes seconds
	}
	for _, gen := range Generators() {
		for _, n := range sizes {
			g, err := gen.Generate(n, DefaultGenConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, fmt.Sprintf("%s(n=%d)", gen.Name(), n), g)
		}
	}
}

// FuzzTopoOrder decodes bytes into a small graph: the first byte picks the
// message count, and each following byte pair (i, d) makes message i
// depend on message d (self-dependencies, duplicates and cycles
// included). TopoOrder must agree with the insertion oracle on all of it.
func FuzzTopoOrder(f *testing.F) {
	f.Add([]byte{4, 0, 3, 2, 1, 2, 3}) // TestTopoOrderDeterministic's graph
	f.Add([]byte{2, 0, 1, 1, 0})       // two-cycle
	f.Add([]byte{3, 1, 1})             // self-dependency
	f.Add([]byte{5, 4, 0, 4, 0, 2, 1}) // duplicate dependency
	f.Add([]byte{16})                  // roots only
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		g := &Graph{NumNodes: 1, Messages: make([]Message, n)}
		for k := 1; k+1 < len(data); k += 2 {
			i, d := int(data[k])%n, int(data[k+1])%n
			g.Messages[i].Deps = append(g.Messages[i].Deps, d)
		}
		checkAgainstOracle(t, fmt.Sprintf("%v", data), g)
	})
}

// TestTopoOrderScales pins TopoOrder's cost to the graph size. From 64 to
// 256 nodes moe-alltoall grows 16× (8,064 → 130,560 messages) and its
// ready frontier holds every dispatch root, so a linearithmic order runs
// ~19× longer and the sorted-insertion frontier ~260×. The 64× bound
// trips on the latter. Each size takes the best of several calls so a GC
// pause or a descheduled slice cannot fail a linearithmic order.
func TestTopoOrderScales(t *testing.T) {
	gen, err := Lookup("moe-alltoall")
	if err != nil {
		t.Fatal(err)
	}
	best := func(n int) time.Duration {
		g, err := gen.Generate(n, DefaultGenConfig())
		if err != nil {
			t.Fatal(err)
		}
		min := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := g.TopoOrder(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(64), best(256)
	t.Logf("TopoOrder(moe-alltoall): 64 nodes %v, 256 nodes %v (%.1fx)", small, large, float64(large)/float64(small))
	if large > 64*small {
		t.Errorf("TopoOrder at 256 nodes took %v, more than 64x the 64-node order's %v: the ready frontier is superlinear",
			large, small)
	}
}
