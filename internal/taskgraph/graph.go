package taskgraph

import (
	"fmt"

	"repro/internal/topology"
)

// Message is one node of the DAG: a network message plus the compute that
// produces it.
type Message struct {
	// Src and Dst are the endpoint nodes.
	Src, Dst topology.NodeID
	// SizeFlits is the message length in flits (≥ 1).
	SizeFlits int
	// ComputeClks models the compute producing this message: the release
	// offset after the last predecessor's tail ejects. For a message with
	// no predecessors it is the absolute release cycle.
	ComputeClks int64
	// Deps lists the indices (into Graph.Messages) of the messages that
	// must fully eject before this one becomes releasable.
	Deps []int
}

// Graph is a message DAG over a fixed node set.
type Graph struct {
	// Name identifies the workload (generator name for generated graphs).
	Name string
	// NumNodes is the node-count the graph was generated for; endpoints
	// must lie in [0, NumNodes).
	NumNodes int
	// Messages in index order; Deps refer to these indices.
	Messages []Message
}

// TotalFlits sums the message sizes.
func (g *Graph) TotalFlits() int64 {
	var sum int64
	for _, m := range g.Messages {
		sum += int64(m.SizeFlits)
	}
	return sum
}

// Validate checks endpoints, sizes, offsets and dependency indices, and
// rejects cyclic graphs (a cycle would deadlock closed-loop injection:
// every message on it waits for another forever).
func (g *Graph) Validate() error {
	_, err := g.ValidOrder()
	return err
}

// ValidOrder is Validate that also returns the graph's TopoOrder, so a
// caller that folds CriticalPathInOrder over the graph many times orders it
// once.
func (g *Graph) ValidOrder() ([]int, error) {
	for i, m := range g.Messages {
		if m.SizeFlits <= 0 {
			return nil, fmt.Errorf("taskgraph: message %d size %d", i, m.SizeFlits)
		}
		if int(m.Src) < 0 || int(m.Src) >= g.NumNodes ||
			int(m.Dst) < 0 || int(m.Dst) >= g.NumNodes {
			return nil, fmt.Errorf("taskgraph: message %d endpoints %d->%d out of range [0,%d)",
				i, m.Src, m.Dst, g.NumNodes)
		}
		if m.ComputeClks < 0 {
			return nil, fmt.Errorf("taskgraph: message %d negative compute offset %d", i, m.ComputeClks)
		}
		for _, d := range m.Deps {
			if d < 0 || d >= len(g.Messages) {
				return nil, fmt.Errorf("taskgraph: message %d dep %d out of range", i, d)
			}
			if d == i {
				return nil, fmt.Errorf("taskgraph: message %d depends on itself", i)
			}
		}
	}
	return g.TopoOrder()
}

// TopoOrder returns a topological order of the message indices (Kahn's
// algorithm, smallest ready index first, so the order is deterministic) or
// an error naming a message on a dependency cycle.
//
// Successors are CSR lists built by one counting pass, and the ready set
// is a binary min-heap of indices, so a call is O(E + n log n) however
// wide the graph's frontier grows.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.Messages)
	indeg := make([]int32, n)
	// off[d]:off[d+1] bounds d's successors in succ. The fill pass below
	// advances each off[d] to its list's end; the copy shifts them back.
	off := make([]int32, n+1)
	for i, m := range g.Messages {
		indeg[i] = int32(len(m.Deps))
		for _, d := range m.Deps {
			off[d+1]++
		}
	}
	for d := 0; d < n; d++ {
		off[d+1] += off[d]
	}
	succ := make([]int32, off[n])
	for i, m := range g.Messages {
		for _, d := range m.Deps {
			succ[off[d]] = int32(i)
			off[d]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0

	// Roots in ascending order already form a valid min-heap.
	ready := make([]int32, 0, n)
	for i := range indeg {
		if indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		i := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		order = append(order, int(i))
		for _, s := range succ[off[i]:off[i+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
				siftUp(ready)
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

// siftUp restores the min-heap order of h after an append.
func siftUp(h []int32) {
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if h[p] <= h[j] {
			return
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
}

// siftDown restores the min-heap order of h after its root was replaced.
func siftDown(h []int32) {
	n := len(h)
	j := 0
	for {
		c := 2*j + 1
		if c >= n {
			return
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[j] <= h[c] {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}

// CriticalPathClks folds a per-message latency estimate over the DAG: each
// message finishes at max(dep finishes) + ComputeClks + latency(message),
// and the result is the latest finish. With latency = zero-load network
// latency this is the contention-free lower bound on makespan (closed-loop
// injection can only release messages at or after these times, and the
// network can only add delay).
func (g *Graph) CriticalPathClks(latency func(Message) int64) (int64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	return g.CriticalPathInOrder(order, latency), nil
}

// CriticalPathInOrder is CriticalPathClks folded over an order the caller
// already holds from TopoOrder or ValidOrder.
func (g *Graph) CriticalPathInOrder(order []int, latency func(Message) int64) int64 {
	finish := make([]int64, len(g.Messages))
	var makespan int64
	for _, i := range order {
		m := g.Messages[i]
		var start int64
		for _, d := range m.Deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[i] = start + m.ComputeClks + latency(m)
		if finish[i] > makespan {
			makespan = finish[i]
		}
	}
	return makespan
}
