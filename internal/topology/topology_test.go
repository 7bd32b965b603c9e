package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/tech"
	"repro/internal/units"
)

func build(t *testing.T, hops int, expressTech tech.Technology) *Network {
	t.Helper()
	c := DefaultConfig()
	c.ExpressHops = hops
	c.ExpressTech = expressTech
	n, err := Build(c)
	if err != nil {
		t.Fatalf("Build(hops=%d): %v", hops, err)
	}
	return n
}

// TestTableIIICapability pins the exact Table III capability values:
// C = 187.5 / 218.75 / 206.25 / 193.75 Gb/s per node for plain mesh and
// express hops 3/5/15 on the 16×16, 50 Gb/s network.
func TestTableIIICapability(t *testing.T) {
	cases := []struct {
		hops int
		want float64
	}{
		{0, 187.5},
		{3, 218.75},
		{5, 206.25},
		{15, 193.75},
	}
	for _, c := range cases {
		n := build(t, c.hops, tech.HyPPI)
		if got := n.CapabilityGbpsPerNode(); got != c.want {
			t.Errorf("hops=%d: C = %v Gb/s, want %v", c.hops, got, c.want)
		}
	}
}

// TestExpressChannelCounts pins the paper's waveguide counts: 5/3/1 express
// channels per row per direction for hops 3/5/15.
func TestExpressChannelCounts(t *testing.T) {
	cases := []struct {
		hops, perRowPerDir int
	}{
		{3, 5}, {5, 3}, {15, 1},
	}
	for _, c := range cases {
		n := build(t, c.hops, tech.HyPPI)
		want := c.perRowPerDir * 16 * 2
		if got := n.ExpressChannels(); got != want {
			t.Errorf("hops=%d: %d express channels, want %d", c.hops, got, want)
		}
	}
}

func TestPlainMeshChannelCount(t *testing.T) {
	n := build(t, 0, tech.Electronic)
	// 16 rows × 15 horizontal + 16 cols × 15 vertical bidirectional
	// pairs = 480 pairs = 960 channels.
	if got := len(n.Links); got != 960 {
		t.Errorf("plain 16×16 mesh has %d channels, want 960", got)
	}
	if n.ExpressChannels() != 0 {
		t.Error("plain mesh must have no express channels")
	}
}

func TestPortCounts(t *testing.T) {
	n := build(t, 3, tech.HyPPI)
	// Interior non-express node: 4 mesh + 1 local = 5.
	if got := n.Ports(n.Node(1, 1)); got != 5 {
		t.Errorf("interior node ports = %d, want 5", got)
	}
	// Express mid-row endpoint (x=3): 4 mesh + 2 express + 1 local = 7.
	if got := n.Ports(n.Node(3, 1)); got != 7 {
		t.Errorf("express mid node ports = %d, want 7", got)
	}
	// Row-end express endpoint (x=0): 3 mesh (edge) + 1 express + 1 = 5.
	if got := n.Ports(n.Node(0, 1)); got != 5 {
		t.Errorf("row-start express node ports = %d, want 5", got)
	}
	// Corner without express: 2 mesh + 1 local = 3.
	plain := build(t, 0, tech.Electronic)
	if got := plain.Ports(plain.Node(0, 0)); got != 3 {
		t.Errorf("corner ports = %d, want 3", got)
	}
	if got := n.MaxPorts(); got != 7 {
		t.Errorf("max ports = %d, want 7 (Table II hybrid)", got)
	}
	if got := plain.MaxPorts(); got != 5 {
		t.Errorf("plain max ports = %d, want 5 (Table II base)", got)
	}
}

func TestLinkPropertiesByTech(t *testing.T) {
	n := build(t, 3, tech.HyPPI)
	for _, l := range n.Links {
		if l.Express {
			if l.Tech != tech.HyPPI {
				t.Fatalf("express link %d tech %v", l.ID, l.Tech)
			}
			if l.LatencyClks != 2 {
				t.Fatalf("optical express latency %d, want 2", l.LatencyClks)
			}
			if l.LengthM != 3*units.Millimetre {
				t.Fatalf("express length %v, want 3 mm", l.LengthM)
			}
			if dy := l.DY(n); dy != 0 {
				t.Fatalf("express link moves vertically: dy=%d", dy)
			}
			if dx := l.DX(n); dx != 3 && dx != -3 {
				t.Fatalf("express link dx=%d, want ±3", dx)
			}
		} else {
			if l.Tech != tech.Electronic {
				t.Fatalf("base link %d tech %v", l.ID, l.Tech)
			}
			if l.LatencyClks != 1 {
				t.Fatalf("electronic base latency %d, want 1", l.LatencyClks)
			}
			if l.LengthM != 1*units.Millimetre {
				t.Fatalf("base length %v, want 1 mm", l.LengthM)
			}
		}
		if l.CapacityBps != 50e9 {
			t.Fatalf("link capacity %v, want 50 Gb/s", l.CapacityBps)
		}
	}
}

// TestBidirectionality: every channel has a reverse twin with identical
// properties.
func TestBidirectionality(t *testing.T) {
	n := build(t, 5, tech.Photonic)
	type key struct {
		a, b NodeID
	}
	seen := map[key]Link{}
	for _, l := range n.Links {
		seen[key{l.Src, l.Dst}] = l
	}
	for _, l := range n.Links {
		r, ok := seen[key{l.Dst, l.Src}]
		if !ok {
			t.Fatalf("link %d has no reverse channel", l.ID)
		}
		if r.Tech != l.Tech || r.LengthM != l.LengthM || r.Express != l.Express {
			t.Fatalf("reverse channel mismatch: %+v vs %+v", l, r)
		}
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	n := build(t, 3, tech.HyPPI)
	outCount, inCount := 0, 0
	for id := 0; id < n.NumNodes(); id++ {
		node := NodeID(id)
		for _, lid := range n.OutLinks(node) {
			if n.Links[lid].Src != node {
				t.Fatalf("out link %d of node %d has src %d", lid, node, n.Links[lid].Src)
			}
			outCount++
		}
		for _, lid := range n.InLinks(node) {
			if n.Links[lid].Dst != node {
				t.Fatalf("in link %d of node %d has dst %d", lid, node, n.Links[lid].Dst)
			}
			inCount++
		}
	}
	if outCount != len(n.Links) || inCount != len(n.Links) {
		t.Errorf("adjacency covers %d out / %d in, want %d", outCount, inCount, len(n.Links))
	}
}

func TestNodeCoordRoundTripProperty(t *testing.T) {
	n := build(t, 0, tech.Electronic)
	f := func(raw uint16) bool {
		id := NodeID(int(raw) % n.NumNodes())
		return n.Node(n.X(id), n.Y(id)) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeshDistance(t *testing.T) {
	n := build(t, 0, tech.Electronic)
	if d := n.MeshDistance(n.Node(0, 0), n.Node(15, 15)); d != 30 {
		t.Errorf("corner-to-corner distance %d, want 30", d)
	}
	if d := n.MeshDistance(n.Node(3, 4), n.Node(3, 4)); d != 0 {
		t.Errorf("self distance %d, want 0", d)
	}
	if d := n.MeshDistance(n.Node(2, 7), n.Node(9, 3)); d != 11 {
		t.Errorf("distance %d, want 11", d)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Width: 1, Height: 16, CoreSpacingM: 1e-3, CapacityBps: 50e9},
		{Width: 16, Height: 0, CoreSpacingM: 1e-3, CapacityBps: 50e9},
		{Width: 16, Height: 16, CoreSpacingM: 0, CapacityBps: 50e9},
		{Width: 16, Height: 16, CoreSpacingM: 1e-3, CapacityBps: 0},
		{Width: 16, Height: 16, CoreSpacingM: 1e-3, CapacityBps: 50e9, ExpressHops: -1},
		{Width: 16, Height: 16, CoreSpacingM: 1e-3, CapacityBps: 50e9, ExpressHops: 16},
	}
	for i, c := range bad {
		if _, err := Build(c); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, c)
		}
	}
}

func TestStringDescribesNetwork(t *testing.T) {
	n := build(t, 3, tech.HyPPI)
	if got := n.String(); got != "16x16 Electronic mesh + HyPPI express (hops=3)" {
		t.Errorf("String() = %q", got)
	}
	p := build(t, 0, tech.Electronic)
	if got := p.String(); got != "16x16 Electronic mesh" {
		t.Errorf("String() = %q", got)
	}
}

func TestTorusLikeH15(t *testing.T) {
	n := build(t, 15, tech.HyPPI)
	// Each row gains exactly one bidirectional long link joining its
	// ends, making the row a ring ("effectively a 2D torus").
	for y := 0; y < 16; y++ {
		found := false
		for _, lid := range n.OutLinks(n.Node(0, y)) {
			l := n.Links[lid]
			if l.Express && l.Dst == n.Node(15, y) {
				found = true
			}
		}
		if !found {
			t.Errorf("row %d missing 0→15 closure link", y)
		}
	}
}

// TestSameWiring: technology variants of one geometry share the wiring;
// another hop length, another grid or a masked view does not.
func TestSameWiring(t *testing.T) {
	a := build(t, 3, tech.HyPPI)
	if !a.SameWiring(build(t, 3, tech.Photonic)) {
		t.Error("technology variants of hops=3 differ in wiring")
	}
	if a.SameWiring(build(t, 5, tech.HyPPI)) {
		t.Error("hops 3 and 5 share the wiring")
	}
	c := DefaultConfig()
	c.Width, c.Height = 8, 32
	if a.SameWiring(MustBuild(c)) {
		t.Error("16×16 and 8×32 share the wiring")
	}
	down := make([]bool, len(a.Links))
	down[0] = true
	masked, err := a.MaskLinks(down)
	if err != nil {
		t.Fatal(err)
	}
	if a.SameWiring(masked) || masked.SameWiring(a) {
		t.Error("a masked view shares the full wiring")
	}
}
