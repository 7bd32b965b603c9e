package core

import (
	"testing"

	"repro/internal/analytic"
	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/traffic"
	"repro/internal/units"
)

// TestAnalyticMatchesSimulatorAtLowLoad cross-validates the two evaluation
// paths the paper uses: the Section III-B analytical latency (zero-load
// shortest paths) must agree with the cycle-accurate simulator under light
// open-loop load, where queueing is negligible. This is the repository's
// strongest internal consistency check — the two implementations share no
// code beyond the routing tables.
func TestAnalyticMatchesSimulatorAtLowLoad(t *testing.T) {
	o := DefaultOptions()
	// Short mode: a smaller generation window still yields enough packets
	// for a stable mean at these rates.
	cycles, minPackets := int64(30000), int64(1000)
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 15},
	}
	if testing.Short() {
		cycles, minPackets = 5000, 150
		points = points[:2]
	}
	for _, point := range points {
		net, tab, err := o.NetworkAndTable(point)
		if err != nil {
			t.Fatal(err)
		}
		tm := traffic.MustSoteriou(net, o.Traffic)

		ana, err := analytic.Evaluate(net, tab, tm, analytic.Params{
			DSENT: o.DSENT, RouterPipelineClks: o.RouterPipelineClks,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Light load: 0.01 flits/cycle peak, single-flit packets, so
		// simulated latency ≈ zero-load head latency.
		w := noc.BernoulliWorkload{SizeFlits: 1, Cycles: cycles, Seed: 17}
		pkts, err := w.Generate(net, tm.ScaledToMaxRate(0.01))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := noc.New(net, tab, noc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.InjectAll(pkts); err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.PacketsEjected < minPackets {
			t.Fatalf("%v: too few packets (%d) for a stable mean", point, st.PacketsEjected)
		}
		if !units.WithinFactor(st.AvgPacketLatencyClks, ana.AvgLatencyClks, 1.20) {
			t.Errorf("%v: simulated latency %.2f vs analytic %.2f (want within 20%%)",
				point, st.AvgPacketLatencyClks, ana.AvgLatencyClks)
		}
		// Hop counts agree too (same tables, same traffic law).
		if !units.WithinFactor(st.AvgHopCount, ana.MeanHops, 1.15) {
			t.Errorf("%v: simulated hops %.2f vs analytic %.2f",
				point, st.AvgHopCount, ana.MeanHops)
		}
	}
}

// TestSimulatorEnergyMatchesAnalyticLoads: link flit counters from the
// simulator, priced with DSENT, must land near the analytic dynamic power ×
// duration under the same sustained traffic.
func TestSimulatorEnergyMatchesAnalyticLoads(t *testing.T) {
	o := DefaultOptions()
	point := DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}
	net, tab, err := o.NetworkAndTable(point)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.MustSoteriou(net, o.Traffic)

	ana, err := analytic.Evaluate(net, tab, tm, analytic.Params{
		DSENT: o.DSENT, RouterPipelineClks: o.RouterPipelineClks,
	})
	if err != nil {
		t.Fatal(err)
	}

	cycles := int64(20000)
	if testing.Short() {
		cycles = 2500
	}
	w := noc.BernoulliWorkload{SizeFlits: 1, Cycles: cycles, Seed: 23}
	pkts, err := w.Generate(net, tm)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := noc.New(net, tab, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InjectAll(pkts); err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	dynamicJ, _, err := PriceRun(net, st, o.DSENT)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic dynamic power × injection window duration.
	wantJ := ana.DynamicW * float64(cycles) / o.DSENT.ClockHz
	if !units.WithinFactor(dynamicJ, wantJ, 1.25) {
		t.Errorf("simulated dynamic energy %v J vs analytic %v J (want within 25%%)", dynamicJ, wantJ)
	}
}
