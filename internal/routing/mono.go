package routing

import "repro/internal/topology"

// mono is the algorithmic MonotoneExpress backend: next hops computed on
// demand, no per-pair state. It answers exactly what the constructive
// table builder (buildMonotoneTable) would — the equivalence is pinned by
// the differential tests and fuzz corpus in mono_test.go.
//
// The constructive definition walks both ring directions greedily and
// picks the shorter one (ties: avoid the dateline, then positive
// direction). The closed forms below shortcut the walks:
//
//   - On a line (no dateline in the dimension) exactly one direction is
//     feasible — the sign of the coordinate delta.
//   - On a ring of extent E, the greedy walk from position x covering rem
//     positions takes rem unit steps — except when a single closure
//     channel covers the whole distance: at x == 0 (in the direction's
//     own coordinate frame) with rem == E−1 the express ring's closure
//     (stride E−1) is the greedy first choice, one hop. The E−1 > 1 guard
//     keeps W = 2 geometries on the base channel, whose equal stride wins
//     the lower-link-ID tie in the role ordering.
//   - The walk crosses the dateline iff it runs past the dimension end
//     (x + rem ≥ E) or takes the closure channel directly.
//
// The negative direction reuses the same formulas in the mirrored frame
// (position E−1−x). Both dimensions of a torus and the row/column-closure
// express rings (hops = extent−1) hit the ring forms; every other
// monotone configuration is a line.
type mono struct {
	net          *topology.Network
	roles        *dirRoles
	ringX, ringY bool
	// xy[id] is node id's (column, row): one load instead of the two
	// divisions net.X and net.Y cost on every hop of every walk.
	xy []nodeXY
}

// nodeXY is one node's grid coordinates.
type nodeXY struct{ x, y int32 }

// newMono builds the O(n) algorithmic backend for a monotone-kind network.
func newMono(net *topology.Network) *mono {
	xy := make([]nodeXY, 0, net.NumNodes())
	for y := 0; y < net.Height; y++ {
		for x := 0; x < net.Width; x++ {
			xy = append(xy, nodeXY{int32(x), int32(y)}) // node y·W + x
		}
	}
	return &mono{
		net:   net,
		roles: buildRoles(net),
		ringX: net.HasDatelineX(),
		ringY: net.HasDatelineY(),
		xy:    xy,
	}
}

// sameMonoInputs reports whether two networks agree on everything newMono
// reads: the grid and, channel by channel, the endpoints and the dateline
// flag. Two algorithmic backends built from such networks answer every
// next hop identically, whatever the channels' technologies.
func sameMonoInputs(a, b *topology.Network) bool {
	if a.Width != b.Width || a.Height != b.Height || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Links {
		la, lb := &a.Links[i], &b.Links[i]
		if la.Src != lb.Src || la.Dst != lb.Dst || la.Dateline != lb.Dateline {
			return false
		}
	}
	return true
}

// nextLink resolves the out-channel at `at` heading for `dst` (noLink when
// equal): X phase first, then Y, as in the constructive builder.
func (m *mono) nextLink(at, dst topology.NodeID) topology.LinkID {
	a, d := m.xy[at], m.xy[dst]
	if a.x != d.x {
		return m.dimNext(at, int(a.x), int(d.x), m.net.Width, m.roles.east, m.roles.west, m.ringX)
	}
	if a.y != d.y {
		return m.dimNext(at, int(a.y), int(d.y), m.net.Height, m.roles.south, m.roles.north, m.ringY)
	}
	return noLink
}

// dimNext routes one dimension phase: from coordinate x toward goal in a
// dimension of extent ext, with pos/neg the direction role lists and ring
// whether the dimension closes into a ring.
func (m *mono) dimNext(at topology.NodeID, x, goal, ext int, pos, neg [][]dirLink, ring bool) topology.LinkID {
	remP := goal - x
	if remP < 0 {
		remP += ext
	}
	remN := ext - remP
	if !ring {
		if goal > x {
			return firstRole(pos[at], remP)
		}
		return firstRole(neg[at], remN)
	}
	hp, wp := ringSteps(x, remP, ext)
	hn, wn := ringSteps(ext-1-x, remN, ext)
	// Shorter direction wins; ties avoid the dateline, then go positive —
	// the constructive builder's pick().
	if hp < hn || (hp == hn && (!wp || wn)) {
		return firstRole(pos[at], remP)
	}
	return firstRole(neg[at], remN)
}

// ringSteps is the closed form for one ring direction, expressed in the
// direction's own frame (position x, rem positions to cover, extent ext):
// greedy hop count and whether the walk crosses the dateline.
func ringSteps(x, rem, ext int) (hops int, wraps bool) {
	if x == 0 && rem == ext-1 && ext-1 > 1 {
		return 1, true // single closure channel covers the whole distance
	}
	return rem, x+rem >= ext
}

// firstRole returns the greedy first link of a direction: the largest
// stride not overshooting the remaining distance. Role lists have at most
// a handful of entries (base, express, closure), so the scan is O(1).
func firstRole(roles []dirLink, rem int) topology.LinkID {
	for _, d := range roles {
		if d.stride <= rem {
			return d.id
		}
	}
	return noLink
}
