// Package topology builds the networks the paper evaluates — a W×H
// electronic (or optical) base mesh, optionally augmented with horizontal
// express links of a chosen technology and hop length (Fig. 2a, 2b) — and
// generalizes them into a registry of named topology kinds (mesh, torus,
// cmesh, fbfly; see kind.go) that all share the same Link/NodeID model.
//
// All links are bidirectional and are represented as pairs of unidirectional
// channels, matching both BookSim's channel model and the way the paper
// counts "waveguides per direction". Express links with Hops = h connect
// nodes (0,h), (h,2h), … along each row; for a 16-wide mesh this yields the
// paper's counts of 5/3/1 express channels per row per direction for
// h = 3/5/15 (h = 15 closes each row into a ring, which the paper calls
// "effectively a 2D torus" — the torus kind builds exactly those closures
// into the base fabric).
package topology

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/tech"
	"repro/internal/units"
)

// NodeID identifies a router/core tile; nodes are numbered row-major,
// id = y*Width + x.
type NodeID int

// LinkID indexes into Network.Links.
type LinkID int

// Link is one unidirectional channel.
type Link struct {
	ID       LinkID
	Src, Dst NodeID
	// Tech is the link's interconnect technology.
	Tech tech.Technology
	// LengthM is the physical route length (Manhattan, core spacing ×
	// hop distance).
	LengthM float64
	// LatencyClks is the traversal latency in router clocks (Table II:
	// 1 electronic, 2 optical).
	LatencyClks int
	// CapacityBps is the channel data rate (50 Gb/s everywhere in the
	// paper, enforced by rate matching).
	CapacityBps float64
	// Express marks long-range express channels (vs base mesh channels).
	Express bool
	// Dateline marks the row-closure channels of the hops = Width−1
	// configuration ("effectively a 2D torus"): traversing one wraps
	// around the row ring, and deadlock-free routing must switch virtual
	// channel classes when crossing it.
	Dateline bool
}

// DX returns the signed X displacement of the link in hops.
func (l Link) DX(n *Network) int { return n.X(l.Dst) - n.X(l.Src) }

// DY returns the signed Y displacement of the link in hops.
func (l Link) DY(n *Network) int { return n.Y(l.Dst) - n.Y(l.Src) }

// Config describes one network of the design space.
type Config struct {
	// Kind selects the topology family (see kind.go); the zero value is
	// Mesh, so configurations predating the registry build unchanged.
	Kind Kind
	// Width and Height give the node grid (Table II: 16×16). For cmesh
	// these are router-grid dimensions; each router serves Concentration
	// cores.
	Width, Height int
	// Concentration is the cmesh cores-per-router factor c (0 selects
	// DefaultConcentration for cmesh; other kinds require 0 or 1).
	Concentration int
	// CoreSpacingM is the inter-core pitch (Table II: 1 mm).
	CoreSpacingM float64
	// CapacityBps is the per-channel rate (Table II: 50 Gb/s).
	CapacityBps float64
	// BaseTech is the technology of the mesh channels.
	BaseTech tech.Technology
	// ExpressTech is the technology of express channels; ignored when
	// ExpressHops is zero.
	ExpressTech tech.Technology
	// ExpressHops is the express hop length h (0 = plain mesh; the paper
	// uses 3, 5, 15).
	ExpressHops int
	// ExpressBothDims extends express links to the vertical dimension as
	// well — the "express cube" generalization the paper declines to
	// keep router radix at 7; with it, interior express nodes reach 9
	// ports. Vertical row-closure links (hops = Height−1) are datelines
	// exactly like their horizontal counterparts.
	ExpressBothDims bool
}

// DefaultConfig returns the paper's Table II network: a 16×16 plain
// electronic mesh with 1 mm core spacing and 50 Gb/s channels.
func DefaultConfig() Config {
	return Config{
		Width:        16,
		Height:       16,
		CoreSpacingM: 1 * units.Millimetre,
		CapacityBps:  50e9,
		BaseTech:     tech.Electronic,
	}
}

// Canonical folds the defaulted fields so equal networks compare (and
// cache) equal: the Kind is lower-cased (LookupKind resolves names
// case-insensitively, so "Torus" and "torus" are one kind), an empty Kind
// is Mesh, and a zero cmesh Concentration is DefaultConcentration. Build
// and Validate canonicalize internally; callers keying caches on a Config
// should canonicalize too.
func (c Config) Canonical() Config {
	c.Kind = Kind(strings.ToLower(strings.TrimSpace(string(c.Kind))))
	if c.Kind == "" {
		c.Kind = Mesh
	}
	if c.Kind == CMesh && c.Concentration == 0 {
		c.Concentration = DefaultConcentration
	}
	return c
}

// Validate checks structural soundness: the common constraints every kind
// shares, then the kind's own (grid floors, express-hop geometry — the
// guard that keeps degenerate extent-1 dimensions with express hops out of
// the monotone table builder, which they would panic).
func (c Config) Validate() error {
	c = c.Canonical()
	spec, err := LookupKind(string(c.Kind))
	if err != nil {
		return err
	}
	if c.Width >= 1 && c.Height >= 1 && c.Width > math.MaxInt/c.Height {
		return fmt.Errorf("topology: %v grid %dx%d overflows the node count", c.Kind, c.Width, c.Height)
	}
	if c.Width < 1 || c.Height < 1 || c.Width*c.Height < 2 {
		return fmt.Errorf("topology: %v grid %dx%d too small", c.Kind, c.Width, c.Height)
	}
	if c.CoreSpacingM <= 0 {
		return fmt.Errorf("topology: %v non-positive core spacing %v", c.Kind, c.CoreSpacingM)
	}
	if c.CapacityBps <= 0 {
		return fmt.Errorf("topology: %v non-positive capacity %v", c.Kind, c.CapacityBps)
	}
	if c.ExpressHops < 0 {
		return fmt.Errorf("topology: %v negative express hops %d", c.Kind, c.ExpressHops)
	}
	if c.Concentration < 0 {
		return fmt.Errorf("topology: %v negative concentration %d", c.Kind, c.Concentration)
	}
	if c.Kind != CMesh && c.Concentration > 1 {
		return fmt.Errorf("topology: concentration %d applies to cmesh only, not %v", c.Concentration, c.Kind)
	}
	return spec.Validate(c)
}

// Network is an immutable built topology.
type Network struct {
	Config
	Links []Link
	// spec is the resolved kind (set by Build; see KindSpec()).
	spec *KindSpec
	// out[node] lists the IDs of channels leaving the node.
	out [][]LinkID
	// in[node] lists the IDs of channels entering the node.
	in [][]LinkID
	// masked marks a degraded view produced by MaskLinks: some channels
	// in Links are absent from out/in, so the closed-form monotone
	// routing backends (which assume the kind's full wiring) do not
	// apply and routing must fall back to the generic BFS builder.
	masked bool
	// sized counts the channels of Build's sizing pass, the wiring run
	// while Links is still nil.
	sized int
}

// Build constructs the network for a configuration, dispatching to the
// configured kind's wiring (see kind.go for the registered families).
func Build(c Config) (*Network, error) {
	c = c.Canonical()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	spec, err := LookupKind(string(c.Kind))
	if err != nil {
		return nil, err
	}
	n := &Network{Config: c, spec: spec}
	// The first pass only counts the kind's channels, so the second
	// appends into a Links slice of exactly that size.
	spec.Wire(c, n)
	n.Links = make([]Link, 0, n.sized)
	spec.Wire(c, n)
	n.index(nil)
	return n, nil
}

// addPair appends the two unidirectional channels of one bidirectional
// link; kind wiring functions build every network through it. While
// Links is nil (Build's sizing pass) it only counts them.
func (n *Network) addPair(a, b NodeID, t tech.Technology, lengthM float64, express, dateline bool) {
	if n.Links == nil {
		n.sized += 2
		return
	}
	for _, e := range [2][2]NodeID{{a, b}, {b, a}} {
		n.Links = append(n.Links, Link{
			ID:          LinkID(len(n.Links)),
			Src:         e[0],
			Dst:         e[1],
			Tech:        t,
			LengthM:     lengthM,
			LatencyClks: tech.LinkLatencyClks(t),
			CapacityBps: n.CapacityBps,
			Express:     express,
			Dateline:    dateline,
		})
	}
}

// index builds the adjacency lists from Links, leaving out every channel
// whose entry in gone is true (a nil gone leaves out none). Each node's
// lists hold its channels in link-ID order, as capacity-capped windows of
// one arena: appending to one node's list cannot overwrite another's.
func (n *Network) index(gone []bool) {
	nn := n.NumNodes()
	deg := make([]int, 2*nn) // out-degrees, then in-degrees
	kept := 0
	for i, l := range n.Links {
		if gone == nil || !gone[i] {
			deg[l.Src]++
			deg[nn+int(l.Dst)]++
			kept++
		}
	}
	adj := make([][]LinkID, 2*nn)
	arena := make([]LinkID, 2*kept)
	off := 0
	for v, d := range deg {
		if d > 0 {
			adj[v] = arena[off : off : off+d]
			off += d
		}
	}
	n.out, n.in = adj[:nn:nn], adj[nn:]
	for i, l := range n.Links {
		if gone == nil || !gone[i] {
			n.out[l.Src] = append(n.out[l.Src], LinkID(i))
			n.in[l.Dst] = append(n.in[l.Dst], LinkID(i))
		}
	}
}

// MustBuild is Build that panics on error.
func MustBuild(c Config) *Network {
	n, err := Build(c)
	if err != nil {
		panic(err)
	}
	return n
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return n.Width * n.Height }

// Node maps grid coordinates to a NodeID.
func (n *Network) Node(x, y int) NodeID { return NodeID(y*n.Width + x) }

// X returns the column of a node.
func (n *Network) X(id NodeID) int { return int(id) % n.Width }

// Y returns the row of a node.
func (n *Network) Y(id NodeID) int { return int(id) / n.Width }

// OutLinks returns the channels leaving a node. The returned slice is owned
// by the network and must not be modified.
func (n *Network) OutLinks(id NodeID) []LinkID { return n.out[id] }

// InLinks returns the channels entering a node. The returned slice is owned
// by the network and must not be modified.
func (n *Network) InLinks(id NodeID) []LinkID { return n.in[id] }

// Ports returns the router port count at a node: one local injection/
// ejection port per attached core (Concentration for cmesh, 1 otherwise)
// plus one port per attached bidirectional link (out-degree). Interior
// mesh nodes have 5 ports; express-endpoint nodes have 6 or 7 ("5 (base)
// or 7 (hybrid)" in Table II).
func (n *Network) Ports(id NodeID) int {
	local := n.Concentration
	if local < 1 {
		local = 1
	}
	return local + len(n.out[id])
}

// MaxPorts returns the largest router port count in the network.
func (n *Network) MaxPorts() int {
	m := 0
	for id := 0; id < n.NumNodes(); id++ {
		if p := n.Ports(NodeID(id)); p > m {
			m = p
		}
	}
	return m
}

// SameWiring reports whether m is wired like n: the same node grid and
// concentration, the same channels link by link (endpoints, express and
// dateline flags) and the same adjacency. Technologies, lengths and
// latencies may differ, so every technology variant of one geometry
// shares its wiring, and a routing table's link IDs name the same
// channels in both.
func (n *Network) SameWiring(m *Network) bool {
	if n == m {
		return true
	}
	if n.Width != m.Width || n.Height != m.Height || n.Concentration != m.Concentration ||
		len(n.Links) != len(m.Links) {
		return false
	}
	for i := range n.Links {
		a, b := &n.Links[i], &m.Links[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Express != b.Express || a.Dateline != b.Dateline {
			return false
		}
	}
	for id := range n.out {
		if !slices.Equal(n.out[id], m.out[id]) {
			return false
		}
	}
	return true
}

// HasDateline reports whether the network contains row-closure (wrap)
// channels, i.e. the hops = Width−1 torus-like configuration.
func (n *Network) HasDateline() bool {
	return n.HasDatelineX() || n.HasDatelineY()
}

// HasDatelineX reports whether horizontal wrap channels exist.
func (n *Network) HasDatelineX() bool {
	for _, l := range n.Links {
		if l.Dateline && l.DX(n) != 0 {
			return true
		}
	}
	return false
}

// HasDatelineY reports whether vertical wrap channels exist (2-D express
// with hops = Height−1).
func (n *Network) HasDatelineY() bool {
	for _, l := range n.Links {
		if l.Dateline && l.DY(n) != 0 {
			return true
		}
	}
	return false
}

// ExpressChannels counts unidirectional express channels.
func (n *Network) ExpressChannels() int {
	c := 0
	for _, l := range n.Links {
		if l.Express {
			c++
		}
	}
	return c
}

// AggregateCapacityBps sums the capacity of every unidirectional channel:
// the numerator of the paper's system-level CLEAR before dividing by N.
func (n *Network) AggregateCapacityBps() float64 {
	var sum float64
	for _, l := range n.Links {
		sum += l.CapacityBps
	}
	return sum
}

// CapabilityGbpsPerNode returns Table III's C: aggregate channel capacity in
// Gb/s divided by the node count.
func (n *Network) CapabilityGbpsPerNode() float64 {
	return n.AggregateCapacityBps() / units.Giga / float64(n.NumNodes())
}

// KindSpec returns the network's resolved topology family.
func (n *Network) KindSpec() *KindSpec {
	if n.spec != nil {
		return n.spec
	}
	// Networks always come out of Build with spec set; resolve lazily for
	// zero-value robustness only. No mutation — safe for concurrent use.
	s, err := LookupKind(string(n.Config.Canonical().Kind))
	if err != nil {
		panic(err)
	}
	return s
}

// Distance returns the minimal hop distance between two nodes over the
// kind's base fabric: Manhattan for mesh/cmesh, folded Manhattan for
// torus, differing-coordinate count for fbfly. Express shortcuts are not
// counted — for express configurations Distance is the base-fabric
// reference, not the routed hop count.
func (n *Network) Distance(a, b NodeID) int {
	return n.KindSpec().Distance(n, a, b)
}

// MeshDistance returns the Manhattan distance in the base grid between two
// nodes — the mesh family's Distance, kept as a fixed reference for
// routing tests that compare kinds against the grid geometry.
func (n *Network) MeshDistance(a, b NodeID) int {
	return distManhattan(n, a, b)
}

// String summarizes the topology.
func (n *Network) String() string {
	c := n.Config.Canonical()
	kind := string(c.Kind)
	if c.Kind == FBFly {
		kind = "flattened butterfly"
	}
	s := fmt.Sprintf("%dx%d %v %s", c.Width, c.Height, c.BaseTech, kind)
	if c.Kind == CMesh {
		s += fmt.Sprintf(" (c=%d)", c.Concentration)
	}
	if c.ExpressHops > 0 {
		s += fmt.Sprintf(" + %v express (hops=%d)", c.ExpressTech, c.ExpressHops)
	}
	return s
}
