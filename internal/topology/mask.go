package topology

import "fmt"

// MaskLinks returns a degraded view of the network with every channel
// whose entry in down is true removed from the adjacency lists. The view
// shares the Links slice with the original — LinkIDs are stable, so
// per-link statistics and energy models sized on the full network still
// line up — but failed channels are invisible to OutLinks/InLinks, carry
// no traffic, and contribute no router ports.
//
// When no channel is down the original network itself is returned, so the
// zero-fault path keeps pointer identity (routing-table caches and
// simulator pools keyed on the *Network see the same entry).
//
// The view is immutable like any Network; masking a masked view composes
// (the down slice is indexed by LinkID against the shared Links).
func (n *Network) MaskLinks(down []bool) (*Network, error) {
	if len(down) != len(n.Links) {
		return nil, fmt.Errorf("topology: mask length %d != %d links", len(down), len(n.Links))
	}
	any := false
	for id, d := range down {
		if d && n.linkPresent(LinkID(id)) {
			any = true
			break
		}
	}
	if !any {
		return n, nil
	}
	// A channel is gone from the view when it is down now or was already
	// absent from n.
	gone := make([]bool, len(down))
	for id, d := range down {
		gone[id] = d || !n.linkPresent(LinkID(id))
	}
	m := &Network{Config: n.Config, Links: n.Links, spec: n.spec, masked: true}
	m.index(gone)
	return m, nil
}

// linkPresent reports whether a channel is in the (possibly already
// masked) adjacency.
func (n *Network) linkPresent(id LinkID) bool {
	for _, lid := range n.out[n.Links[id].Src] {
		if lid == id {
			return true
		}
	}
	return false
}

// IsMasked reports whether this network is a degraded MaskLinks view
// rather than the kind's full wiring.
func (n *Network) IsMasked() bool { return n.masked }

// DownLinks returns the IDs of channels present in Links but masked out
// of the adjacency — empty for an unmasked network.
func (n *Network) DownLinks() []LinkID {
	if !n.masked {
		return nil
	}
	var down []LinkID
	for _, l := range n.Links {
		if !n.linkPresent(l.ID) {
			down = append(down, l.ID)
		}
	}
	return down
}
