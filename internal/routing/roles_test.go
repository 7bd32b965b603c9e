package routing

import (
	"slices"
	"testing"

	"repro/internal/tech"
	"repro/internal/topology"
)

// appendRoles is the reference role classification: each role inserted,
// in link-ID order, into its own growing list, keeping descending stride
// with ties in insertion order.
func appendRoles(net *topology.Network) [4][][]dirLink {
	var r [4][][]dirLink // east, west, south, north
	for d := range r {
		r[d] = make([][]dirLink, net.NumNodes())
	}
	add := func(d int, at topology.NodeID, stride int, id topology.LinkID) {
		ls := r[d][at]
		pos := slices.IndexFunc(ls, func(x dirLink) bool { return stride > x.stride })
		if pos < 0 {
			pos = len(ls)
		}
		r[d][at] = slices.Insert(ls, pos, dirLink{stride: stride, id: id})
	}
	for _, l := range net.Links {
		switch dx, dy := l.DX(net), l.DY(net); {
		case dx > 0:
			add(0, l.Src, dx, l.ID)
			if l.Dateline {
				add(1, l.Src, net.Width-dx, l.ID)
			}
		case dx < 0:
			add(1, l.Src, -dx, l.ID)
			if l.Dateline {
				add(0, l.Src, net.Width+dx, l.ID)
			}
		case dy > 0:
			add(2, l.Src, dy, l.ID)
			if l.Dateline {
				add(3, l.Src, net.Height-dy, l.ID)
			}
		case dy < 0:
			add(3, l.Src, -dy, l.ID)
			if l.Dateline {
				add(2, l.Src, net.Height+dy, l.ID)
			}
		}
	}
	return r
}

// TestBuildRolesMatchesAppendBuilt: on every monotone geometry of the
// differential grid, the arena-backed role lists equal the append-built
// reference, and appending to one node's list leaves its neighbour's
// alone.
func TestBuildRolesMatchesAppendBuilt(t *testing.T) {
	for _, c := range monoGeometries(t) {
		net := topology.MustBuild(c)
		r := buildRoles(net)
		got := [4][][]dirLink{r.east, r.west, r.south, r.north}
		want := appendRoles(net)
		for d := range got {
			for at := range got[d] {
				_ = append(got[d][at], dirLink{stride: -1, id: -1})
			}
		}
		for d := range got {
			for at := range got[d] {
				if !slices.Equal(got[d][at], want[d][at]) {
					t.Errorf("%v: direction %d node %d roles %v, want %v", net, d, at, got[d][at], want[d][at])
				}
			}
		}
	}
}

// TestMonotoneBuildAllocations: the algorithmic 16×16 express table
// allocates a fixed handful of slices, not one role list per node and
// direction.
func TestMonotoneBuildAllocations(t *testing.T) {
	net := variant(t, 3, tech.Electronic, tech.HyPPI)
	if got := testing.AllocsPerRun(10, func() { MustBuild(net, MonotoneExpress) }); got > 16 {
		t.Errorf("16x16 express MonotoneExpress table: %.0f allocations, want at most 16", got)
	}
}
