package noc

import (
	"reflect"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// runWith simulates one packet list under a config, with the per-cycle
// invariant check armed, and returns the Stats.
func runWith(t *testing.T, net *topology.Network, tab *routing.Table, cfg Config, pkts []Packet) Stats {
	t.Helper()
	s, err := New(net, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	CheckInvariants(t, s)
	if err := s.InjectAll(pkts); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// skipGeometries covers the channel regimes the idle-leap interacts with:
// plain mesh (1-clock channels), hybrid express (mixed 1/2-clock arrivals
// in the calendar), the row-closure dateline configuration (classed VC
// state), and a torus (rings in both dimensions).
func skipGeometries(t *testing.T) map[string]struct {
	net *topology.Network
	tab *routing.Table
} {
	t.Helper()
	out := make(map[string]struct {
		net *topology.Network
		tab *routing.Table
	})
	for name, hops := range map[string]int{"mesh": 0, "express3": 3, "ring7": 7} {
		net, tab := smallMesh(t, 8, 8, hops)
		out[name] = struct {
			net *topology.Network
			tab *routing.Table
		}{net, tab}
	}
	c := topology.DefaultConfig()
	c.Kind = topology.Torus
	c.Width, c.Height = 8, 8
	net, err := topology.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	out["torus"] = struct {
		net *topology.Network
		tab *routing.Table
	}{net, routing.MustBuild(net, routing.MonotoneExpress)}
	return out
}

// TestIdleSkipBitIdentical is the cycle-skipping kernel's equivalence
// contract: for every geometry × pattern × load point, a run with the
// idle-leap enabled must produce Stats bit-identical to a run that steps
// through every cycle — same counters, same latency samples and
// percentiles, same Activity census. Low loads leave long idle stretches
// (the skip's bread and butter); higher loads verify the leap never fires
// across a cycle that would have done work.
func TestIdleSkipBitIdentical(t *testing.T) {
	skip := DefaultConfig()
	step := DefaultConfig()
	step.DisableIdleSkip = true
	for geo, g := range skipGeometries(t) {
		for _, pattern := range []string{"uniform", "tornado"} {
			for i, rate := range []float64{0.02, 0.25} {
				pkts := bernoulliPackets(t, g.net, pattern, rate, int64(90+i))
				got := runWith(t, g.net, g.tab, skip, pkts)
				want := runWith(t, g.net, g.tab, step, pkts)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s rate=%v: idle-skip run diverges from stepped run:\nstep: %+v\nskip: %+v",
						geo, pattern, rate, want, got)
				}
			}
		}
	}
}
