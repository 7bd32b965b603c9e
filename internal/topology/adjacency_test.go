package topology

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/tech"
)

// appendAdjacency is the reference adjacency: every channel not in gone
// appended, in link-ID order, to its source's out list and its
// destination's in list.
func appendAdjacency(n *Network, gone func(LinkID) bool) (out, in [][]LinkID) {
	out = make([][]LinkID, n.NumNodes())
	in = make([][]LinkID, n.NumNodes())
	for _, l := range n.Links {
		if !gone(l.ID) {
			out[l.Src] = append(out[l.Src], l.ID)
			in[l.Dst] = append(in[l.Dst], l.ID)
		}
	}
	return out, in
}

// checkAdjacency compares a network's OutLinks/InLinks with the
// append-built reference.
func checkAdjacency(t *testing.T, name string, n *Network, gone func(LinkID) bool) {
	t.Helper()
	out, in := appendAdjacency(n, gone)
	for v := 0; v < n.NumNodes(); v++ {
		id := NodeID(v)
		if !slices.Equal(n.OutLinks(id), out[v]) {
			t.Errorf("%s: OutLinks(%d) = %v, want %v", name, v, n.OutLinks(id), out[v])
		}
		if !slices.Equal(n.InLinks(id), in[v]) {
			t.Errorf("%s: InLinks(%d) = %v, want %v", name, v, n.InLinks(id), in[v])
		}
	}
}

// adjacencyNetworks is one network of every registered kind plus the
// mesh variants with express channels in one and both dimensions.
func adjacencyNetworks(t *testing.T) map[string]*Network {
	t.Helper()
	nets := map[string]*Network{}
	for _, k := range Kinds() {
		nets[string(k)] = buildKind(t, k, 6, 5)
	}
	for _, both := range []bool{false, true} {
		for _, hops := range []int{3, 4} {
			c := DefaultConfig()
			c.Width, c.Height = 6, 5
			c.ExpressTech, c.ExpressHops, c.ExpressBothDims = tech.HyPPI, hops, both
			nets[fmt.Sprintf("mesh hops=%d both=%v", hops, both)] = MustBuild(c)
		}
	}
	return nets
}

// TestAdjacencyMatchesAppendBuilt: the arena-backed adjacency of every
// kind, of express in both dimensions and of masked views (a mask of a
// mask included) lists exactly the channels an append-built reference
// does, in the same order, and Build sizes Links exactly.
func TestAdjacencyMatchesAppendBuilt(t *testing.T) {
	none := func(LinkID) bool { return false }
	for name, n := range adjacencyNetworks(t) {
		checkAdjacency(t, name, n, none)
		if len(n.Links) != cap(n.Links) {
			t.Errorf("%s: Links has %d channels but capacity %d", name, len(n.Links), cap(n.Links))
		}
		down := make([]bool, len(n.Links))
		for id := range down {
			down[id] = id%5 == 1
		}
		m, err := n.MaskLinks(down)
		if err != nil {
			t.Fatal(err)
		}
		checkAdjacency(t, name+" masked", m, func(id LinkID) bool { return down[id] })
		more := make([]bool, len(n.Links))
		for id := range more {
			more[id] = id%7 == 2
		}
		mm, err := m.MaskLinks(more)
		if err != nil {
			t.Fatal(err)
		}
		checkAdjacency(t, name+" masked twice", mm, func(id LinkID) bool { return down[id] || more[id] })
		if got := len(mm.DownLinks()); got != countTrue(down, more) {
			t.Errorf("%s masked twice: %d down links, want %d", name, got, countTrue(down, more))
		}
	}
}

// countTrue counts the indices set in either mask.
func countTrue(a, b []bool) int {
	c := 0
	for i := range a {
		if a[i] || b[i] {
			c++
		}
	}
	return c
}

// TestAdjacencyAppendDoesNotOverwriteNeighbour: each node's lists are
// capacity-capped windows of a shared arena, so appending to one (against
// the documented contract) reallocates instead of writing into the next
// node's window.
func TestAdjacencyAppendDoesNotOverwriteNeighbour(t *testing.T) {
	for name, n := range adjacencyNetworks(t) {
		out, in := appendAdjacency(n, func(LinkID) bool { return false })
		for v := 0; v < n.NumNodes(); v++ {
			_ = append(n.OutLinks(NodeID(v)), -1)
			_ = append(n.InLinks(NodeID(v)), -1)
		}
		for v := 0; v < n.NumNodes(); v++ {
			if !slices.Equal(n.OutLinks(NodeID(v)), out[v]) || !slices.Equal(n.InLinks(NodeID(v)), in[v]) {
				t.Fatalf("%s: appending to a node's lists changed node %d's", name, v)
			}
		}
	}
}

// TestBuildAllocations: a 16×16 express build allocates a fixed handful of
// slices (the network, Links, the degree counts, the list headers and one
// arena), not one per channel or per node.
func TestBuildAllocations(t *testing.T) {
	c := DefaultConfig()
	c.ExpressTech, c.ExpressHops = tech.HyPPI, 3
	if got := testing.AllocsPerRun(10, func() { MustBuild(c) }); got > 8 {
		t.Errorf("16x16 express Build: %.0f allocations, want at most 8", got)
	}
}
