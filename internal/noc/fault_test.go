package noc

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
)

func faultTestNet(t *testing.T, w, h int) (*topology.Network, *routing.Table) {
	t.Helper()
	net, err := topology.Build(topology.Config{
		Width: w, Height: h,
		CoreSpacingM: 1 * units.Millimetre,
		CapacityBps:  50e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routing.Build(net, routing.MonotoneExpress)
	if err != nil {
		t.Fatal(err)
	}
	return net, tab
}

func faultTestPackets(t *testing.T, net *topology.Network, rate float64, cycles int64) []Packet {
	t.Helper()
	tm := uniformMatrix(t, net, rate)
	pkts, err := BernoulliWorkload{SizeFlits: 1, Cycles: cycles, Seed: 7}.Generate(net, tm)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

func uniformBER(net *topology.Network, p float64) []float64 {
	probs := make([]float64, len(net.Links))
	for i := range probs {
		probs[i] = p
	}
	return probs
}

// TestFaultRetransmitDelivery pins the acceptance criterion: under nonzero
// BER with unlimited retries, every injected packet is eventually
// delivered, the failed traversals show up in the retransmission census,
// and the energy-bearing counters include them. The per-cycle invariant
// check covers the retry path's buffer and allocator state.
func TestFaultRetransmitDelivery(t *testing.T) {
	net, tab := faultTestNet(t, 4, 4)
	pkts := faultTestPackets(t, net, 0.1, 300)
	sim, err := New(net, tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	CheckInvariants(t, sim)
	if err := sim.SetFaultProfile(&FaultProfile{
		LinkFlitErrorProb: uniformBER(net, 0.2),
		Seed:              42,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.InjectAll(pkts); err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.PacketsEjected != int64(len(pkts)) {
		t.Fatalf("delivered %d of %d packets", st.PacketsEjected, len(pkts))
	}
	if st.PacketsDropped != 0 {
		t.Fatalf("unexpected drops: %d", st.PacketsDropped)
	}
	retx := st.Activity.TotalRetransmits()
	if retx == 0 {
		t.Fatal("BER 0.2 run recorded no retransmissions")
	}
	// Every retry re-reads the buffer without re-writing, crosses the
	// switch and toggles the link: the invariants the energy model prices.
	if got, want := st.Activity.BufferReads, st.Activity.BufferWrites+retx; got != want {
		t.Fatalf("BufferReads = %d, want writes+retx = %d", got, want)
	}
	if st.Activity.CrossbarTraversals != st.Activity.BufferReads {
		t.Fatalf("CrossbarTraversals %d != BufferReads %d",
			st.Activity.CrossbarTraversals, st.Activity.BufferReads)
	}
	var linkTotal int64
	for _, c := range st.LinkFlits {
		linkTotal += c
	}
	if got := st.Activity.TotalFlitHops(); got != linkTotal {
		t.Fatalf("LinkFlitHops %d != sum(LinkFlits) %d (retries must count in both)", got, linkTotal)
	}
}

// TestFaultDropReporting pins the explicit-drop half of the criterion:
// with BER 1 every traversal fails, so a finite retry budget must fail
// every packet loudly (PacketsDropped) while the run still drains.
func TestFaultDropReporting(t *testing.T) {
	net, tab := faultTestNet(t, 4, 4)
	pkts := faultTestPackets(t, net, 0.05, 200)
	sim, err := New(net, tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetFaultProfile(&FaultProfile{
		LinkFlitErrorProb: uniformBER(net, 1),
		Seed:              1,
		RetryLimit:        2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.InjectAll(pkts); err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.PacketsDropped != int64(len(pkts)) {
		t.Fatalf("PacketsDropped = %d, want %d (every traversal corrupts)", st.PacketsDropped, len(pkts))
	}
	if st.PacketsEjected != 0 {
		t.Fatalf("PacketsEjected = %d, want 0", st.PacketsEjected)
	}
	// Exactly RetryLimit failed attempts per hop before giving up.
	if st.Activity.TotalRetransmits() == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

// TestFaultZeroProfileIdentity is the kernel-level differential test: an
// all-zero (or nil) fault profile must leave Stats bit-identical to the
// faultless run.
func TestFaultZeroProfileIdentity(t *testing.T) {
	net, tab := faultTestNet(t, 4, 4)
	pkts := faultTestPackets(t, net, 0.2, 400)
	run := func(arm func(*Sim)) Stats {
		sim, err := New(net, tab, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if arm != nil {
			arm(sim)
		}
		if err := sim.InjectAll(pkts); err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(nil)
	zero := run(func(s *Sim) {
		if err := s.SetFaultProfile(&FaultProfile{LinkFlitErrorProb: uniformBER(net, 0)}); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(base, zero) {
		t.Fatalf("zero-probability profile diverged from faultless run:\n%+v\nvs\n%+v", base, zero)
	}
	nilProfile := run(func(s *Sim) {
		if err := s.SetFaultProfile(nil); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(base, nilProfile) {
		t.Fatal("nil profile diverged from faultless run")
	}
}

// TestFaultProfileValidation covers the rejection paths and Reset clearing.
func TestFaultProfileValidation(t *testing.T) {
	net, tab := faultTestNet(t, 4, 4)
	sim, err := New(net, tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetFaultProfile(&FaultProfile{LinkFlitErrorProb: []float64{0.5}}); err == nil {
		t.Fatal("wrong probability count accepted")
	}
	if err := sim.SetFaultProfile(&FaultProfile{LinkFlitErrorProb: uniformBER(net, 1.5)}); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
	if err := sim.SetFaultProfile(&FaultProfile{LinkFlitErrorProb: uniformBER(net, 0.5), RetryLimit: -1}); err == nil {
		t.Fatal("negative retry limit accepted")
	}
	if err := sim.SetFaultProfile(&FaultProfile{LinkFlitErrorProb: uniformBER(net, 0.5)}); err != nil {
		t.Fatal(err)
	}
	if sim.fault == nil {
		t.Fatal("profile did not arm")
	}
	sim.Reset()
	if sim.fault != nil {
		t.Fatal("Reset must disarm the fault profile")
	}
}

// TestFaultUnroutableNamedError runs the kernel on a degraded table with a
// disconnected destination: the run must abort with a wrapped
// routing.ErrUnreachable naming the pair, not panic on the missing port.
func TestFaultUnroutableNamedError(t *testing.T) {
	net, _ := faultTestNet(t, 4, 4)
	down := make([]bool, len(net.Links))
	for _, l := range net.Links {
		if l.Src == 15 || l.Dst == 15 {
			down[l.ID] = true
		}
	}
	masked, err := net.MaskLinks(down)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routing.BuildDegraded(masked, routing.MonotoneExpress)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(masked, tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(Packet{Src: 0, Dst: 15, SizeFlits: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run()
	if !errors.Is(err, routing.ErrUnreachable) {
		t.Fatalf("Run = %v, want wrapped routing.ErrUnreachable", err)
	}
}

// TestSaturatedStatus is the MaxCycles satellite: a run that hits the cap
// must surface a distinguishable saturated status with honest partial
// stats, identically across the idle-skip and stepping kernels.
func TestSaturatedStatus(t *testing.T) {
	net, tab := faultTestNet(t, 4, 4)
	// Far more load than a 4×4 mesh can drain in 50 cycles.
	pkts := faultTestPackets(t, net, 0.9, 200)
	for _, disableSkip := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.MaxCycles = 50
		cfg.DisableIdleSkip = disableSkip
		sim, err := New(net, tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.InjectAll(pkts); err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("skip=%v: err = %v, want ErrSaturated", !disableSkip, err)
		}
		var sat *SaturatedError
		if !errors.As(err, &sat) {
			t.Fatalf("skip=%v: err %T does not expose *SaturatedError", !disableSkip, err)
		}
		if sat.Remaining <= 0 || sat.Cycles != 50 {
			t.Fatalf("skip=%v: SaturatedError %+v implausible", !disableSkip, sat)
		}
		if st.Cycles != 50 {
			t.Fatalf("skip=%v: stats.Cycles = %d, want the cap (not silently truncated)", !disableSkip, st.Cycles)
		}
		if st.FlitsInjected == 0 {
			t.Fatalf("skip=%v: partial stats empty", !disableSkip)
		}
	}
}

// TestFaultDeterminism: identical seeds give bit-identical faulted runs;
// different seeds diverge.
func TestFaultDeterminism(t *testing.T) {
	net, tab := faultTestNet(t, 4, 4)
	pkts := faultTestPackets(t, net, 0.1, 300)
	run := func(seed int64) Stats {
		sim, err := New(net, tab, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.SetFaultProfile(&FaultProfile{
			LinkFlitErrorProb: uniformBER(net, 0.3),
			Seed:              seed,
		}); err != nil {
			t.Fatal(err)
		}
		if err := sim.InjectAll(pkts); err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(5), run(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different faulted runs")
	}
	c := run(6)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical faulted runs (suspicious)")
	}
}
