package noc

import (
	"errors"
	"fmt"
	"math"
)

// ErrSaturated marks a run aborted at the Config.MaxCycles cap before the
// network drained. Callers distinguish saturation from programming errors
// with errors.Is(err, ErrSaturated); the concrete *SaturatedError carries
// the undrained packet count and the abort cycle.
var ErrSaturated = errors.New("noc: run saturated")

// SaturatedError is the error returned by Run when MaxCycles elapses with
// packets still in flight — deadlock or offered load beyond capacity. The
// Stats returned alongside it are the honest partial census up to Cycles,
// not a silently truncated full run.
type SaturatedError struct {
	// Remaining is the number of injected packets not yet ejected.
	Remaining int64
	// Cycles is the cycle count at which the run was cut.
	Cycles int64
}

// Error implements error.
func (e *SaturatedError) Error() string {
	return fmt.Sprintf("noc: %d packets undrained after %d cycles (deadlock or overload)",
		e.Remaining, e.Cycles)
}

// Unwrap lets errors.Is(err, ErrSaturated) match.
func (e *SaturatedError) Unwrap() error { return ErrSaturated }

// FaultProfile arms per-link flit corruption with link-level NACK and
// retransmission — the BER model of the fault layer. Attach one with
// Sim.SetFaultProfile before Run; Reset disarms it. A nil profile (the
// default) leaves the kernel bit-identical to the faultless simulator.
//
// The model is stop-and-wait per virtual channel: a corrupted traversal
// leaves the flit at the head of its VC (preserving wormhole flit order),
// charges the attempt like a real hop — buffer read, crossbar pass,
// channel flit-hop, all visible to energy pricing — and makes the flit
// eligible again only after the NACK round trip (1 + 2×link latency
// cycles). Corruption draws are a pure hash of (Seed, link, packet, flit,
// cycle), so runs are deterministic and independent of worker scheduling.
type FaultProfile struct {
	// LinkFlitErrorProb[l] is the probability that one flit traversal of
	// channel l is corrupted (detected by the receiver's CRC and NACKed).
	// Must have one entry per network link, each in [0, 1].
	LinkFlitErrorProb []float64
	// Seed drives the deterministic corruption draws.
	Seed int64
	// RetryLimit bounds retransmission attempts per flit per hop. When a
	// flit exhausts the budget the corrupt payload is forwarded anyway and
	// the packet is discarded at its destination, reported in
	// Stats.PacketsDropped — never silently. 0 means retry forever (every
	// flit is eventually delivered, or the run hits MaxCycles and reports
	// ErrSaturated).
	RetryLimit int
}

// faultState is the armed, precomputed form of a FaultProfile.
type faultState struct {
	prob       []float64
	seed       uint64
	retryLimit int32
}

// SetFaultProfile arms (or, with nil, disarms) a fault profile. A profile
// whose probabilities are all zero disarms too, keeping the zero-fault hot
// path free of per-flit checks.
func (s *Sim) SetFaultProfile(fp *FaultProfile) error {
	if fp == nil {
		s.fault = nil
		return nil
	}
	if len(fp.LinkFlitErrorProb) != len(s.net.Links) {
		return fmt.Errorf("noc: fault profile has %d link probabilities, network has %d links",
			len(fp.LinkFlitErrorProb), len(s.net.Links))
	}
	if fp.RetryLimit < 0 {
		return fmt.Errorf("noc: negative retry limit %d", fp.RetryLimit)
	}
	any := false
	for i, p := range fp.LinkFlitErrorProb {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("noc: link %d flit error probability %v out of [0,1]", i, p)
		}
		if p > 0 {
			any = true
		}
	}
	if !any {
		s.fault = nil
		return nil
	}
	prob := make([]float64, len(fp.LinkFlitErrorProb))
	copy(prob, fp.LinkFlitErrorProb)
	s.fault = &faultState{
		prob:       prob,
		seed:       uint64(fp.Seed),
		retryLimit: int32(fp.RetryLimit),
	}
	return nil
}

// splitmix64 is the finalizer step of the SplitMix64 generator, the same
// mixer runner.Seed uses for per-job seed derivation.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// corruptDraw maps (seed, link, packet, flit, cycle) to a uniform value in
// [0, 1): a traversal attempt is corrupted when the draw falls below the
// link's error probability. Including the cycle redraws every retry.
func corruptDraw(seed uint64, lid, pkt, seq int32, now int64) float64 {
	z := splitmix64(seed + uint64(lid)*0x9E3779B97F4A7C15)
	z = splitmix64(z ^ (uint64(uint32(pkt)) | uint64(uint32(seq))<<32))
	z = splitmix64(z ^ uint64(now))
	return float64(z>>11) / (1 << 53)
}

// faultIntercept applies the armed fault profile to one granted channel
// traversal, before the flit is popped. It returns true when the flit was
// corrupted and stays buffered for retransmission; false lets the caller
// send normally — including the give-up case, where a flit whose retry
// budget is exhausted is forwarded corrupt and its packet fails at the
// destination (Stats.PacketsDropped) instead of wedging the worm mid-path.
func (s *Sim) faultIntercept(rid, port, v int, vc *vcState, out *outState) bool {
	lid := out.link
	p := s.fault.prob[lid]
	if p <= 0 {
		return false
	}
	front := vc.q.front()
	if corruptDraw(s.fault.seed, int32(lid), front.f.pkt, front.f.seq, s.now) >= p {
		return false // clean traversal
	}
	if s.fault.retryLimit > 0 && front.tries >= s.fault.retryLimit {
		s.pkts[front.f.pkt].dropped = true
		return false
	}
	// Failed traversal: the channel toggled and the receiver NACKed, so
	// the attempt is charged like a real hop — buffer re-read, crossbar
	// pass, channel flit-hop — plus the retransmission census; the flit
	// stays at the head of its VC, ineligible until the NACK returns.
	front.tries++
	front.ready = s.now + 1 + 2*int64(s.linkLat[lid])
	s.routers[rid].ports[port].saPtr = int32(v + 1)
	s.stats.Activity.BufferReads++
	s.stats.Activity.CrossbarTraversals++
	s.stats.LinkFlits[lid]++
	cls := s.linkClass[lid]
	s.stats.Activity.LinkFlitHops[cls]++
	s.stats.Activity.RetransmittedFlitHops[cls]++
	if s.linkExpr[lid] {
		s.stats.Activity.ExpressFlitHops++
	}
	return true
}
