package routing

import (
	"testing"

	"repro/internal/tech"
	"repro/internal/topology"
)

// variant builds the 16×16 geometry with the given hop length and channel
// technologies.
func variant(t *testing.T, hops int, base, express tech.Technology) *topology.Network {
	t.Helper()
	c := topology.DefaultConfig()
	c.BaseTech, c.ExpressTech, c.ExpressHops = base, express, hops
	net, err := topology.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// nextHopsEqual is SameRoutes by definition: every pair compared.
func nextHopsEqual(a, b *Table) bool {
	nn := a.Net().NumNodes()
	if b.Net().NumNodes() != nn {
		return false
	}
	for at := 0; at < nn; at++ {
		for dst := 0; dst < nn; dst++ {
			if a.NextLink(topology.NodeID(at), topology.NodeID(dst)) != b.NextLink(topology.NodeID(at), topology.NodeID(dst)) {
				return false
			}
		}
	}
	return true
}

// TestSameRoutesTechnologyVariants: the technology variants of one
// geometry route identically under MonotoneExpress — on the algorithmic
// backend's shortcut and on the constructive dense table alike — while
// tables of different hop lengths never agree.
func TestSameRoutesTechnologyVariants(t *testing.T) {
	techs := []tech.Technology{tech.Electronic, tech.Photonic, tech.HyPPI}
	for _, hops := range []int{0, 3, 15} {
		ref := MustBuild(variant(t, hops, tech.Electronic, tech.Electronic), MonotoneExpress)
		dense := buildMonotoneTable(ref.Net())
		if !ref.SameRoutes(dense) || !dense.SameRoutes(ref) {
			t.Errorf("hops=%d: algorithmic and constructive tables disagree", hops)
		}
		for _, base := range techs {
			for _, express := range techs {
				tab := MustBuild(variant(t, hops, base, express), MonotoneExpress)
				if !ref.SameRoutes(tab) || !nextHopsEqual(ref, tab) {
					t.Errorf("hops=%d %v/%v: technology variant routes differently", hops, base, express)
				}
			}
		}
	}
	for _, pol := range allPolicies() {
		a := MustBuild(variant(t, 3, tech.Electronic, tech.HyPPI), pol)
		b := MustBuild(variant(t, 5, tech.Electronic, tech.HyPPI), pol)
		if a.SameRoutes(b) || b.SameRoutes(a) {
			t.Errorf("%v: hop lengths 3 and 5 report the same routes", pol)
		}
	}
}

// TestSameRoutesShortestHopsLatencyTieBreak: ShortestHops breaks ties
// between equally short successors by link latency, so swapping the base
// and express technologies (1-clock electronic vs 2-clock optical
// channels) splits two networks of one wiring into different routes of
// the same hop counts. MonotoneExpress routes the same pair identically.
func TestSameRoutesShortestHopsLatencyTieBreak(t *testing.T) {
	a := variant(t, 3, tech.Electronic, tech.Photonic)
	b := variant(t, 3, tech.Photonic, tech.Electronic)
	if !a.SameWiring(b) {
		t.Fatal("technology variants do not share the wiring")
	}
	ta, tb := MustBuild(a, ShortestHops), MustBuild(b, ShortestHops)
	if ta.SameRoutes(tb) || nextHopsEqual(ta, tb) {
		t.Fatal("latency tie-break did not split the ShortestHops tables")
	}
	for s := 0; s < a.NumNodes(); s++ {
		for d := 0; d < a.NumNodes(); d++ {
			src, dst := topology.NodeID(s), topology.NodeID(d)
			if ha, hb := ta.HopCount(src, dst), tb.HopCount(src, dst); ha != hb {
				t.Fatalf("%d -> %d: %d vs %d hops; the split is not a tie-break", s, d, ha, hb)
			}
		}
	}
	if !MustBuild(a, MonotoneExpress).SameRoutes(MustBuild(b, MonotoneExpress)) {
		t.Error("MonotoneExpress split by technology")
	}
	if !ta.SameRoutes(MustBuild(a, ShortestHops)) {
		t.Error("two ShortestHops tables of one network disagree")
	}
}
