package noc

import "fmt"

// InjectClosedLoop queues one batch of dependency-structured packets:
// deps[i] lists the indices (within ps) of the packets whose tails must
// eject before packet i becomes releasable. For a packet with
// dependencies, Release is reinterpreted as a compute offset — the packet
// enters its source queue Release cycles after its last predecessor's tail
// ejects (the modeled compute between receiving inputs and sending the
// result). Packets without dependencies keep the usual absolute Release.
//
// Completion means tail ejection at the destination, dropped or not: a
// packet that exhausted its retransmission budget still arrived (corrupt)
// and still unblocks its successors, keeping the schedule well-defined
// under fault injection.
//
// The batch must be the run's entire workload (call on a fresh or Reset
// simulator, once); congestion then feeds back into the injection schedule
// and Stats.MakespanClks reports the end-to-end completion cycle. The
// dependency graph must be acyclic — cycles are the caller's to reject
// (taskgraph.Validate); a cycle that slips through surfaces as a named
// stall error from Run, not a hang.
func (s *Sim) InjectClosedLoop(ps []Packet, deps [][]int) error {
	if s.ran {
		return fmt.Errorf("noc: InjectClosedLoop after Run")
	}
	if s.closedLoop || len(s.pkts) != 0 {
		return fmt.Errorf("noc: InjectClosedLoop needs an empty simulator (one batch per run)")
	}
	if len(deps) != len(ps) {
		return fmt.Errorf("noc: %d packets but %d dependency lists", len(ps), len(deps))
	}
	n := len(ps)
	edges := 0
	for i, dl := range deps {
		for _, d := range dl {
			if d < 0 || d >= n {
				return fmt.Errorf("noc: packet %d dependency %d out of range [0,%d)", i, d, n)
			}
			if d == i {
				return fmt.Errorf("noc: packet %d depends on itself", i)
			}
		}
		edges += len(dl)
	}
	for i, p := range ps {
		if p.SizeFlits <= 0 {
			return fmt.Errorf("noc: packet %d size %d", i, p.SizeFlits)
		}
		if int(p.Src) < 0 || int(p.Src) >= s.net.NumNodes() ||
			int(p.Dst) < 0 || int(p.Dst) >= s.net.NumNodes() {
			return fmt.Errorf("noc: packet %d endpoints %d->%d out of range", i, p.Src, p.Dst)
		}
		if p.Release < 0 {
			return fmt.Errorf("noc: packet %d negative release/offset %d", i, p.Release)
		}
	}

	// CSR successor lists (the reverse of deps) by counting sort, plus the
	// pending-predecessor counts the completion events decrement.
	s.closedLoop = true
	s.pending = make([]int32, n)
	s.succOff = make([]int32, n+1)
	s.succList = make([]int32, edges)
	for _, dl := range deps {
		for _, d := range dl {
			s.succOff[d+1]++
		}
	}
	for d := 0; d < n; d++ {
		s.succOff[d+1] += s.succOff[d]
	}
	fill := make([]int32, n)
	for i, dl := range deps {
		s.pending[i] = int32(len(dl))
		for _, d := range dl {
			s.succList[s.succOff[d]+fill[d]] = int32(i)
			fill[d]++
		}
	}

	// Only root packets (no predecessors) enter their source queues now;
	// the rest are parked until completeSuccessors releases them. Every
	// packet ends up in its source queue, so growQueues sizes the queues
	// for the released ones too.
	s.growQueues(ps)
	for i, p := range ps {
		s.pkts = append(s.pkts, pktMeta{Packet: p})
		if s.pending[i] == 0 {
			s.sources[p.Src] = append(s.sources[p.Src], int32(i))
		}
	}
	return nil
}

// completeSuccessors runs at a tail ejection: every successor of the
// completed packet loses one pending predecessor, and those reaching zero
// are released into their source queues.
func (s *Sim) completeSuccessors(pi int32) {
	for _, si := range s.succList[s.succOff[pi]:s.succOff[pi+1]] {
		s.pending[si]--
		if s.pending[si] == 0 {
			s.releasePacket(si)
		}
	}
}

// releasePacket turns a packet's compute offset into an absolute release
// (the ejection completes at now+1, the compute starts then) and inserts
// it into its source queue. The un-injected suffix of every source queue
// stays sorted by (release, packet index) — the exact order Run's initial
// stable sort establishes — so closed-loop insertion and open-loop
// pre-sorting are indistinguishable to the injection stage.
func (s *Sim) releasePacket(pi int32) {
	p := &s.pkts[pi]
	rel := s.now + 1 + p.Release
	p.Release = rel // latency accounting measures from the actual release
	node := int(p.Src)
	q := s.sources[node]
	lo := s.srcPos[node]
	if s.srcFlit[node] > 0 {
		lo++ // the current packet is mid-injection; never displace it
	}
	hi := len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if qr := s.pkts[q[mid]].Release; qr < rel || (qr == rel && q[mid] < pi) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, 0)
	copy(q[lo+1:], q[lo:])
	q[lo] = pi
	s.sources[node] = q

	// A parked (or exhausted) source needs a wake entry for the new
	// packet; a live one re-checks its queue every cycle anyway. Stale
	// entries this can leave in the heap are filtered at pop time (see
	// injectFromSources).
	if s.srcMask[node>>6]&(1<<(uint(node)&63)) == 0 {
		s.heapPush(srcRel{rel: rel, node: int32(node)})
	}
}

// sourceDue reports whether a woken node's head packet is releasable this
// cycle, re-parking the node at the head's actual release when it is not
// (or dropping the wake when the queue is exhausted). Only closed-loop
// runs call this: open-loop wake entries are exact by construction.
func (s *Sim) sourceDue(node int) bool {
	pos := s.srcPos[node]
	q := s.sources[node]
	if pos >= len(q) {
		return false
	}
	if rel := s.pkts[q[pos]].Release; rel > s.now {
		s.heapPush(srcRel{rel: rel, node: int32(node)})
		return false
	}
	return true
}
