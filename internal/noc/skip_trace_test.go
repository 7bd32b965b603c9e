package noc_test

import (
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/routing"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestIdleSkipBitIdenticalTrace repeats the cycle-skip equivalence contract
// on bursty NPB trace workloads, whose inter-phase gaps are exactly the
// idle stretches the leap compresses. Release times are spread over
// thousands of cycles with the network fully drained between phases, so
// the skip path (release-heap leap with an empty calendar) carries most of
// the run. It lives in an external test package because trace imports noc.
func TestIdleSkipBitIdenticalTrace(t *testing.T) {
	c := topology.DefaultConfig()
	c.Width, c.Height = 8, 8
	c.ExpressHops = 3
	c.ExpressTech = tech.HyPPI
	net, err := topology.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	skip := noc.DefaultConfig()
	step := noc.DefaultConfig()
	step.DisableIdleSkip = true
	run := func(cfg noc.Config, pkts []noc.Packet) noc.Stats {
		s, err := noc.New(net, tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		noc.CheckInvariants(t, s)
		if err := s.InjectAll(pkts); err != nil {
			t.Fatal(err)
		}
		st, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, kernel := range []npb.Kernel{npb.FT, npb.LU} {
		cfg := npb.DefaultConfig(kernel)
		cfg.GridW, cfg.GridH = 8, 8
		cfg.Iterations = 2
		events, err := npb.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := trace.Packetize(events, net.NumNodes(), trace.DefaultPacketize())
		if err != nil {
			t.Fatal(err)
		}
		got := run(skip, pkts)
		want := run(step, pkts)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%v: idle-skip trace run diverges from stepped run:\nstep: %+v\nskip: %+v",
				kernel, want, got)
		}
	}
}
