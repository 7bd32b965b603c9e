// Package routing builds oblivious routing tables for the paper's networks.
//
// Two policies are provided:
//
//   - MonotoneExpress (default): X-then-Y dimension-ordered routing where
//     the X phase greedily takes an express channel whenever it is aligned
//     with the travel direction and does not overshoot the destination
//     column. Movement is monotone in each dimension, so the channel
//     dependency graph is acyclic and the policy is deadlock-free — this is
//     what the cycle-accurate simulator uses, mirroring the paper's hybrid
//     router that "always uses electronics for basic routing" with express
//     channels taken opportunistically.
//
//   - ShortestHops: per-destination BFS producing minimal hop counts like
//     BookSim 2.0's anynet shortest-path tables (the simulator the paper
//     matches its analytical routing against). Minimal paths may briefly
//     travel away from the destination to reach an express on-ramp; ties
//     prefer X movement (dimension order), then motion toward the
//     destination, then lower link latency, then lower link ID, making the
//     tables fully deterministic.
//
// Both are oblivious: the route depends only on (current node, destination).
//
// Topology kinds: the monotone construction applies to every kind whose
// dimension phases are lines or dateline-annotated rings — mesh, cmesh
// (identical link shape) and torus (wrap channels are datelines, so the
// usual VC-class switch on wrap keeps the rings deadlock-free, exactly as
// in the paper's hops = W−1 configuration). Kinds outside that shape
// (fbfly, whose rows and columns are all-to-all) report Monotone = false
// in their topology.KindSpec and fall back to the generic shortest-path
// construction under either policy; see each KindSpec.Deadlock for the
// per-kind deadlock-freedom annotation.
package routing

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/topology"
)

// ErrUnreachable is wrapped by every routing error caused by a
// disconnected fabric: Build on a network with unreachable (src,dst)
// pairs, NextLinkErr/HopErr on a missing route. Callers that tolerate
// degraded fabrics (the fault layer) test for it with errors.Is and use
// BuildDegraded; everyone else treats it as fatal instead of receiving a
// silently invalid table or a panic.
var ErrUnreachable = errors.New("routing: destination unreachable")

// Policy selects the table construction algorithm.
type Policy int

const (
	// MonotoneExpress is deadlock-free dimension-ordered express routing.
	MonotoneExpress Policy = iota
	// ShortestHops is BookSim-anynet-style minimal-hop BFS routing.
	ShortestHops
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case MonotoneExpress:
		return "MonotoneExpress"
	case ShortestHops:
		return "ShortestHops"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// noLink marks "at destination" entries.
const noLink = topology.LinkID(-1)

// Table answers, for every (node, destination) pair, the out-channel to
// take. Two backends hide behind the same interface:
//
//   - algorithmic (monotone kinds under MonotoneExpress): next hops are
//     computed on demand from O(n) per-node role lists by closed-form
//     per-dimension ring formulas — no per-pair state at all, which is
//     what lets 64×64+ geometries route in O(n) memory;
//   - table (ShortestHops, and fbfly-style kinds without monotone
//     phases): the generic dense [node][dst] next-hop matrix.
type Table struct {
	net    *topology.Network
	policy Policy
	next   [][]topology.LinkID // table backend [node][dst]; nil when alg is set
	alg    *mono               // algorithmic backend; nil when next is set
	// unreachable counts ordered (src,dst) pairs, src != dst, with no
	// route — always zero for tables from Build (which rejects them) and
	// for the algorithmic backend (monotone kinds are connected by
	// construction); nonzero only for BuildDegraded tables.
	unreachable int
	// firstUnreachable records one disconnected pair for diagnostics.
	firstUnreachable [2]topology.NodeID
}

// allocNext allocates the dense table backend, all entries noLink.
func (t *Table) allocNext() {
	nn := t.net.NumNodes()
	t.next = make([][]topology.LinkID, nn)
	backing := make([]topology.LinkID, nn*nn)
	for i := range t.next {
		t.next[i], backing = backing[:nn], backing[nn:]
		for j := range t.next[i] {
			t.next[i][j] = noLink
		}
	}
}

// Build constructs a routing table for the network under the given policy.
// A fabric with disconnected (src,dst) pairs — a masked network can be one
// — yields a nil table and an error wrapping ErrUnreachable naming a
// disconnected pair; use BuildDegraded to route the connected subset.
func Build(net *topology.Network, policy Policy) (*Table, error) {
	t, err := build(net, policy)
	if err != nil {
		return nil, err
	}
	if t.unreachable > 0 {
		return nil, fmt.Errorf("%w: %d -> %d (and %d more of %d pairs)",
			ErrUnreachable, t.firstUnreachable[0], t.firstUnreachable[1],
			t.unreachable-1, t.orderedPairs())
	}
	return t, nil
}

// BuildDegraded constructs a best-effort table on a possibly disconnected
// fabric: connected pairs route normally, disconnected ones answer noLink
// from NextLink and a wrapped ErrUnreachable from NextLinkErr/HopErr.
// Availability reports the connected fraction. Masked networks always take
// the generic BFS builder (their wiring no longer matches the kind's
// closed monotone forms).
func BuildDegraded(net *topology.Network, policy Policy) (*Table, error) {
	return build(net, policy)
}

func build(net *topology.Network, policy Policy) (*Table, error) {
	t := &Table{net: net, policy: policy}
	switch policy {
	case MonotoneExpress:
		if net.KindSpec().Monotone && !net.IsMasked() {
			t.alg = newMono(net)
		} else {
			// Generic fallback for kinds without dimension-ordered
			// monotone phases (see the package comment) and for masked
			// degraded views of any kind.
			t.allocNext()
			t.buildShortest()
		}
	case ShortestHops:
		t.allocNext()
		t.buildShortest()
	default:
		return nil, fmt.Errorf("routing: unknown policy %v", policy)
	}
	return t, nil
}

// orderedPairs returns the number of ordered (src,dst) pairs, src != dst.
func (t *Table) orderedPairs() int {
	nn := t.net.NumNodes()
	return nn * (nn - 1)
}

// Unreachable returns the number of ordered (src,dst) pairs with no route.
func (t *Table) Unreachable() int { return t.unreachable }

// Availability returns the fraction of ordered (src,dst) pairs, src != dst,
// that are still connected — 1 for any table out of Build, possibly lower
// for BuildDegraded tables on masked fabrics. This is the per-run
// availability metric of the fault layer.
func (t *Table) Availability() float64 {
	if t.unreachable == 0 {
		return 1
	}
	return 1 - float64(t.unreachable)/float64(t.orderedPairs())
}

// Reachable reports whether a route from src to dst exists (true when
// src == dst).
func (t *Table) Reachable(src, dst topology.NodeID) bool {
	return src == dst || t.NextLink(src, dst) != noLink
}

// MustBuild is Build that panics on error.
func MustBuild(net *topology.Network, policy Policy) *Table {
	t, err := Build(net, policy)
	if err != nil {
		panic(err)
	}
	return t
}

// Net returns the network this table routes.
func (t *Table) Net() *topology.Network { return t.net }

// Policy returns the construction policy.
func (t *Table) Policy() Policy { return t.policy }

// dirLink is an X channel usable in one ring direction with a given stride.
type dirLink struct {
	stride int
	id     topology.LinkID
}

// dirRoles holds the per-node direction role lists of a monotone kind:
// every channel, keyed by the ring direction it can serve and the stride
// it covers. Role lists are sorted by descending stride (ties: lower link
// ID, i.e. base before express), so a greedy largest-first scan picks the
// dimension-ordered express route. Total size is O(n) — each link
// contributes at most two roles.
type dirRoles struct {
	east, west   [][]dirLink // positive / negative X
	south, north [][]dirLink // positive / negative Y (grid rows grow southward)
}

// buildRoles classifies every channel of a monotone-kind network into
// direction roles. Row/column-closure channels (datelines) serve both ring
// directions: their wrap role covers the complementary stride. A first
// pass counts each list's roles, so every list is a capacity-capped
// window of one arena.
func buildRoles(net *topology.Network) *dirRoles {
	nn := net.NumNodes()
	lists := make([][]dirLink, 4*nn) // east, west, south, north
	r := &dirRoles{
		east:  lists[:nn:nn],
		west:  lists[nn : 2*nn : 2*nn],
		south: lists[2*nn : 3*nn : 3*nn],
		north: lists[3*nn:],
	}
	const east, west, south, north = 0, 1, 2, 3
	// roles calls add for every role of every channel; dir*nn + at
	// indexes the role's list.
	roles := func(add func(list, stride int, id topology.LinkID)) {
		for _, l := range net.Links {
			at := int(l.Src)
			if dx := l.DX(net); dx != 0 {
				if dx > 0 {
					add(east*nn+at, dx, l.ID)
					if l.Dateline {
						add(west*nn+at, net.Width-dx, l.ID)
					}
				} else {
					add(west*nn+at, -dx, l.ID)
					if l.Dateline {
						add(east*nn+at, net.Width+dx, l.ID)
					}
				}
				continue
			}
			if dy := l.DY(net); dy != 0 {
				if dy > 0 {
					add(south*nn+at, dy, l.ID)
					if l.Dateline {
						add(north*nn+at, net.Height-dy, l.ID)
					}
				} else {
					add(north*nn+at, -dy, l.ID)
					if l.Dateline {
						add(south*nn+at, net.Height+dy, l.ID)
					}
				}
			}
		}
	}
	count := make([]int, len(lists))
	total := 0
	roles(func(list, _ int, _ topology.LinkID) {
		count[list]++
		total++
	})
	arena := make([]dirLink, total)
	off := 0
	for i, c := range count {
		if c > 0 {
			lists[i] = arena[off : off : off+c]
			off += c
		}
	}
	roles(func(list, stride int, id topology.LinkID) {
		// Keep role lists sorted by descending stride; on ties the
		// lower link ID (base before express) wins.
		ls := lists[list]
		pos := len(ls)
		for i, d := range ls {
			if stride > d.stride {
				pos = i
				break
			}
		}
		ls = append(ls, dirLink{})
		copy(ls[pos+1:], ls[pos:])
		ls[pos] = dirLink{stride: stride, id: id}
		lists[list] = ls
	})
	return r
}

// buildMonotoneTable materializes the monotone dimension-ordered policy
// into a dense next-hop table by literally walking the role lists for
// every pair. The algorithmic backend (mono) replaces it in production;
// it is kept as the ground truth the differential-equivalence tests and
// fuzz corpus compare mono against, so the closed forms can never drift
// from the constructive definition.
func buildMonotoneTable(net *topology.Network) *Table {
	t := &Table{net: net, policy: MonotoneExpress}
	t.allocNext()
	t.buildMonotone()
	return t
}

// buildMonotone constructs the dimension-ordered table. Each dimension's
// phase routes on its row/column treated as a line (plain and short-hop
// configurations) or a ring (row/column-closure express channels double as
// wraparounds): both ring directions are walked greedily (largest aligned,
// non-overshooting stride first) and the shorter feasible one wins, ties
// avoiding the dateline, then going in the positive direction. Movement
// never mixes ring directions within a phase, so with dateline VC switching
// on wrap channels the policy is deadlock-free. X completes before Y.
func (t *Table) buildMonotone() {
	net := t.net
	nn := net.NumNodes()
	roles := buildRoles(net)
	east, west, south, north := roles.east, roles.west, roles.south, roles.north

	// walk greedily follows one direction's role links from at; returns
	// hop count, the first link, and whether the path crosses a dateline
	// (wrap), or hops = -1 if the direction is infeasible (line topology,
	// path would cross the end).
	maxHops := net.Width + net.Height
	walk := func(at topology.NodeID, roles [][]dirLink, remaining int) (int, topology.LinkID, bool) {
		first := noLink
		hops := 0
		wraps := false
		for remaining > 0 {
			var chosen topology.LinkID = noLink
			stride := 0
			for _, d := range roles[at] {
				if d.stride <= remaining {
					chosen = d.id
					stride = d.stride
					break
				}
			}
			if chosen == noLink {
				return -1, noLink, false
			}
			if first == noLink {
				first = chosen
			}
			if net.Links[chosen].Dateline {
				wraps = true
			}
			at = net.Links[chosen].Dst
			remaining -= stride
			hops++
			if hops > maxHops {
				return -1, noLink, false // defensive: cannot happen
			}
		}
		return hops, first, wraps
	}

	// pick chooses between the two ring directions of one dimension.
	pick := func(at topology.NodeID, pos, neg [][]dirLink, remPos, remNeg int) topology.LinkID {
		ph, pl, pw := walk(at, pos, remPos)
		nh, nl, nw := walk(at, neg, remNeg)
		switch {
		case ph < 0 && nh < 0:
			return noLink // cannot happen on built topologies
		case nh < 0:
			return pl
		case ph < 0:
			return nl
		case ph < nh, ph == nh && (!pw || nw):
			return pl
		default:
			return nl
		}
	}

	for at := 0; at < nn; at++ {
		atN := topology.NodeID(at)
		ax, ay := net.X(atN), net.Y(atN)
		for dst := 0; dst < nn; dst++ {
			if at == dst {
				continue
			}
			dstN := topology.NodeID(dst)
			dx, dy := net.X(dstN), net.Y(dstN)
			switch {
			case ax != dx:
				remE := ((dx-ax)%net.Width + net.Width) % net.Width
				t.next[at][dst] = pick(atN, east, west, remE, net.Width-remE)
			case ay != dy:
				remS := ((dy-ay)%net.Height + net.Height) % net.Height
				t.next[at][dst] = pick(atN, south, north, remS, net.Height-remS)
			}
		}
	}
}

func (t *Table) buildShortest() {
	net := t.net
	nn := net.NumNodes()
	// Per destination: reverse BFS for hop distances, then pick the
	// tie-broken minimal successor at every node.
	dist := make([]int, nn)
	queue := make([]topology.NodeID, 0, nn)
	for d := 0; d < nn; d++ {
		dstN := topology.NodeID(d)
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue = queue[:0]
		queue = append(queue, dstN)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, lid := range net.InLinks(v) {
				u := net.Links[lid].Src
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for at := 0; at < nn; at++ {
			if at == d {
				continue
			}
			if dist[at] < 0 {
				// No path from at to d on this (possibly masked) fabric.
				if t.unreachable == 0 {
					t.firstUnreachable = [2]topology.NodeID{topology.NodeID(at), dstN}
				}
				t.unreachable++
				continue
			}
			t.next[at][d] = t.shortestNext(topology.NodeID(at), dstN, dist)
		}
	}
}

// rank orders candidate next-hops for the ShortestHops tie-break.
type rank struct {
	isY, away, latency, id int
}

func (a rank) less(b rank) bool {
	if a.isY != b.isY {
		return a.isY < b.isY
	}
	if a.away != b.away {
		return a.away < b.away
	}
	if a.latency != b.latency {
		return a.latency < b.latency
	}
	return a.id < b.id
}

// shortestNext picks among the minimal-distance successors of at using the
// deterministic tie-break chain: X movement first, then movement toward the
// destination in that dimension, then lower link latency, then lower ID.
func (t *Table) shortestNext(at, dst topology.NodeID, dist []int) topology.LinkID {
	net := t.net
	best := noLink
	var bestRank rank
	for _, lid := range net.OutLinks(at) {
		l := net.Links[lid]
		if dist[l.Dst] != dist[at]-1 {
			continue
		}
		r := rank{latency: l.LatencyClks, id: int(lid)}
		if l.DX(net) == 0 {
			r.isY = 1
			want := net.Y(dst) - net.Y(at)
			if want*l.DY(net) < 0 {
				r.away = 1
			}
		} else {
			want := net.X(dst) - net.X(at)
			if want*l.DX(net) < 0 {
				r.away = 1
			}
		}
		if best == noLink || r.less(bestRank) {
			best = lid
			bestRank = r
		}
	}
	return best
}

// NextLink returns the out-channel to take at `at` heading for `dst`, or
// -1 when at == dst — and, on a degraded table, when dst is unreachable
// from at (NextLinkErr distinguishes the two).
func (t *Table) NextLink(at, dst topology.NodeID) topology.LinkID {
	if t.alg != nil {
		return t.alg.nextLink(at, dst)
	}
	return t.next[at][dst]
}

// SameRoutes reports whether u answers every (node, destination) pair
// with the same next hop as t. Two tables that agree route every pair
// over the same link IDs, so one walk over t also walks u's routes when
// their networks share the wiring (topology.Network.SameWiring). The check
// compares the next hops in O(n²), except between two algorithmic tables
// built from the same grid and channels, whose next hops agree by
// construction; tables of different node counts never match.
func (t *Table) SameRoutes(u *Table) bool {
	if t == u {
		return true
	}
	nn := t.net.NumNodes()
	if u.net.NumNodes() != nn || t.unreachable != u.unreachable {
		return false
	}
	if t.alg != nil && u.alg != nil && sameMonoInputs(t.net, u.net) {
		return true
	}
	if t.next != nil && u.next != nil {
		for at := range t.next {
			if !slices.Equal(t.next[at], u.next[at]) {
				return false
			}
		}
		return true
	}
	for at := 0; at < nn; at++ {
		for dst := 0; dst < nn; dst++ {
			if t.NextLink(topology.NodeID(at), topology.NodeID(dst)) != u.NextLink(topology.NodeID(at), topology.NodeID(dst)) {
				return false
			}
		}
	}
	return true
}

// NextLinkErr is NextLink with the missing-route case surfaced as a named
// error: a route answers (link, nil), at == dst answers (-1, nil), and an
// unreachable destination answers (-1, err) with errors.Is(err,
// ErrUnreachable) true and both endpoints in the message.
func (t *Table) NextLinkErr(at, dst topology.NodeID) (topology.LinkID, error) {
	lid := t.NextLink(at, dst)
	if lid == noLink && at != dst {
		return noLink, fmt.Errorf("%w: no route %d -> %d", ErrUnreachable, at, dst)
	}
	return lid, nil
}

// Hop is the single guarded step shared by every route walker (Path,
// HopCount, LatencyClks, and through HopID the analytic evaluator and the
// optical projection walker): it resolves the link leaving `at` toward
// `dst`, rejecting a missing route and enforcing the cyclic-table bound.
// hops is the number of steps already taken; callers increment it after
// each Hop. A nil return means the walk failed — HopErr reconstructs the
// diagnostic. The nil sentinel (rather than an error return) keeps Hop
// inlinable: the walkers loop over it in the design-space sweep's hottest
// path, allocation-free.
func (t *Table) Hop(at, dst topology.NodeID, hops int) *topology.Link {
	lid := t.HopID(at, dst, hops)
	if lid == noLink {
		return nil
	}
	return &t.net.Links[lid]
}

// HopID is Hop answering the link's ID, -1 when the walk failed. Walkers
// that keep their own compact per-link arrays index them with it and never
// touch the full topology.Link.
func (t *Table) HopID(at, dst topology.NodeID, hops int) topology.LinkID {
	lid := t.NextLink(at, dst)
	if hops >= t.net.NumNodes() {
		return noLink
	}
	return lid
}

// HopErr reports why Hop(at, dst, hops) returned nil. A missing route
// wraps ErrUnreachable.
func (t *Table) HopErr(at, dst topology.NodeID, hops int) error {
	if t.NextLink(at, dst) == noLink {
		return fmt.Errorf("%w: no route %d -> %d", ErrUnreachable, at, dst)
	}
	if hops >= t.net.NumNodes() {
		return fmt.Errorf("routing: path to %d exceeds node count; table is cyclic", dst)
	}
	return nil
}

// mustHop is Hop for the walkers that keep the historical panic behavior.
func (t *Table) mustHop(src, at, dst topology.NodeID, hops int) *topology.Link {
	l := t.Hop(at, dst, hops)
	if l == nil {
		panic(fmt.Sprintf("%v (walking %d -> %d)", t.HopErr(at, dst, hops), src, dst))
	}
	return l
}

// Path returns the channel sequence from src to dst (empty for src == dst).
func (t *Table) Path(src, dst topology.NodeID) []topology.LinkID {
	if src == dst {
		return nil
	}
	var path []topology.LinkID
	for at := src; at != dst; {
		l := t.mustHop(src, at, dst, len(path))
		path = append(path, l.ID)
		at = l.Dst
	}
	return path
}

// HopCount returns the number of channels on the route. Unlike Path it
// walks the table without materializing the route, so it is allocation-free.
func (t *Table) HopCount(src, dst topology.NodeID) int {
	hops := 0
	for at := src; at != dst; {
		at = t.mustHop(src, at, dst, hops).Dst
		hops++
	}
	return hops
}

// LatencyClks returns the zero-load head latency of the route: one router
// pipeline traversal plus the channel latency per hop, plus the final
// router traversal at the destination for ejection. Like HopCount it is
// allocation-free.
func (t *Table) LatencyClks(src, dst topology.NodeID, routerPipelineClks int) int {
	total := routerPipelineClks
	hops := 0
	for at := src; at != dst; {
		l := t.mustHop(src, at, dst, hops)
		total += routerPipelineClks + l.LatencyClks
		at = l.Dst
		hops++
	}
	return total
}
