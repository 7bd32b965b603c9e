package noc

import (
	"fmt"
	"testing"
)

// CheckInvariants arms s's per-cycle kernel invariant check: from the next
// Run on, t fails at the end of the first cycle whose state breaks one of
// the kernel's conservation laws (see checkInvariants). The check is test
// wiring, not run wiring, so it survives Reset.
func CheckInvariants(t testing.TB, s *Sim) {
	t.Helper()
	held := make([]int, len(s.net.Links)*s.cfg.VCs)
	s.cycleHook = func() {
		clear(held)
		if err := s.checkInvariants(held); err != nil {
			t.Fatalf("noc invariant broken at cycle %d: %v", s.now, err)
		}
	}
}

// checkInvariants recomputes the kernel's bookkeeping from VC, channel and
// calendar state at the end of a cycle and reports the first mismatch:
//
//   - per-VC credit conservation: for every channel and VC, the upstream
//     credits plus the flits buffered downstream plus the flits in flight
//     equal the buffer depth;
//   - flit conservation: flits injected = flits ejected + flits live
//     (buffered or in flight), and the per-router, total and in-flight
//     counters and the active-router bitmap agree with the buffers;
//   - single ownership: each output VC has at most one owning input VC,
//     and each input VC holding an output VC is that VC's recorded owner;
//   - the per-port occupancy and eligibility masks equal a recomputation
//     from VC state.
//
// held is zeroed scratch of len(links)*VCs.
func (s *Sim) checkInvariants(held []int) error {
	vcs := s.cfg.VCs
	if len(s.credits) != 0 {
		return fmt.Errorf("%d credit events pending past the cycle", len(s.credits))
	}
	var inflight int64
	for _, bucket := range s.calendar {
		for _, a := range bucket {
			held[int(a.lid)*vcs+int(a.f.vc)]++
			inflight++
		}
	}
	if inflight != s.inflight {
		return fmt.Errorf("in-flight counter %d, calendar holds %d flits", s.inflight, inflight)
	}
	var total int64
	for rid := range s.routers {
		r := &s.routers[rid]
		var buffered int32
		for p := range r.ports {
			ip := &r.ports[p]
			var occ, elig uint64
			for v := 0; v < vcs; v++ {
				i := p*vcs + v
				vc := &r.in[i]
				n := vc.q.len()
				buffered += int32(n)
				if p > 0 {
					held[int(ip.link)*vcs+v] += n
				}
				if n > 0 {
					occ |= 1 << uint(v)
					if vc.routed && vc.outVC >= 0 {
						elig |= 1 << uint(v)
					}
				}
				if vc.outVC >= 0 {
					if !vc.routed {
						return fmt.Errorf("router %d port %d VC %d holds output VC %d unrouted", rid, p, v, vc.outVC)
					}
					if own := r.out[vc.outPort].owner[vc.outVC]; own != int32(i) {
						return fmt.Errorf("router %d port %d VC %d holds output %d VC %d, owned by %d",
							rid, p, v, vc.outPort, vc.outVC, own)
					}
				}
			}
			if ip.occ != occ || ip.elig != elig {
				return fmt.Errorf("router %d port %d masks occ=%b elig=%b, VC state gives occ=%b elig=%b",
					rid, p, ip.occ, ip.elig, occ, elig)
			}
		}
		for op := range r.out {
			for fv, own := range r.out[op].owner {
				if own < 0 {
					continue
				}
				in := &r.in[own]
				if int(in.outPort) != op || int(in.outVC) != fv || !in.routed {
					return fmt.Errorf("router %d output %d VC %d owned by input VC %d, which holds output %d VC %d",
						rid, op, fv, own, in.outPort, in.outVC)
				}
			}
		}
		if buffered != s.buffered[rid] {
			return fmt.Errorf("router %d buffers %d flits, counter says %d", rid, buffered, s.buffered[rid])
		}
		if active := s.activeMask[rid>>6]&(1<<(uint(rid)&63)) != 0; active != (buffered > 0) {
			return fmt.Errorf("router %d active bit %v with %d flits buffered", rid, active, buffered)
		}
		total += int64(buffered)
	}
	if total != s.totalBuf {
		return fmt.Errorf("%d flits buffered, counter says %d", total, s.totalBuf)
	}
	if inj, ej := s.stats.FlitsInjected, s.stats.FlitsEjected; inj != ej+total+inflight {
		return fmt.Errorf("flits injected %d != ejected %d + buffered %d + in flight %d", inj, ej, total, inflight)
	}
	depth := s.cfg.BufDepthFlits
	for rid := range s.routers {
		r := &s.routers[rid]
		for op := 1; op < len(r.out); op++ {
			out := &r.out[op]
			for v, c := range out.credits {
				if h := held[int(out.link)*vcs+v]; int(c)+h != depth {
					return fmt.Errorf("channel %d VC %d: %d credits + %d flits buffered or in flight != depth %d",
						out.link, v, c, h, depth)
				}
			}
		}
	}
	return nil
}
