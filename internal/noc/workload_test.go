package noc

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

func workloadNet(t testing.TB) (*topology.Network, *routing.Table, *traffic.Matrix) {
	t.Helper()
	c := topology.DefaultConfig()
	c.Width, c.Height = 8, 8
	c.ExpressTech = tech.HyPPI
	net, err := topology.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	return net, tab, uniformMatrix(t, net, 0.1)
}

// uniformMatrix generates the registry's uniform pattern on net at rate.
func uniformMatrix(t testing.TB, net *topology.Network, rate float64) *traffic.Matrix {
	t.Helper()
	p, err := traffic.Lookup("uniform")
	if err != nil {
		t.Fatal(err)
	}
	tm, err := p.Generate(net, rate)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestBernoulliRateMatchesMatrix: the generated flit volume approximates
// rate × cycles × nodes.
func TestBernoulliRateMatchesMatrix(t *testing.T) {
	net, _, tm := workloadNet(t)
	w := BernoulliWorkload{SizeFlits: 4, Cycles: 20000, Seed: 3}
	pkts, err := w.Generate(net, tm)
	if err != nil {
		t.Fatal(err)
	}
	var flits int64
	for _, p := range pkts {
		flits += int64(p.SizeFlits)
		if p.Src == p.Dst {
			t.Fatal("self packet generated")
		}
		if p.Release < 0 || p.Release >= w.Cycles {
			t.Fatalf("release %d outside horizon", p.Release)
		}
	}
	want := 0.1 * float64(w.Cycles) * 64 // rate × cycles × nodes
	if !units.WithinFactor(float64(flits), want, 1.1) {
		t.Errorf("generated %d flits, want ≈%v", flits, want)
	}
}

func TestBernoulliDeterminism(t *testing.T) {
	net, _, tm := workloadNet(t)
	w := BernoulliWorkload{SizeFlits: 1, Cycles: 5000, Seed: 9}
	a, err := w.Generate(net, tm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Generate(net, tm)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestBernoulliValidation(t *testing.T) {
	net, _, tm := workloadNet(t)
	if _, err := (BernoulliWorkload{SizeFlits: 0, Cycles: 10}).Generate(net, tm); err == nil {
		t.Error("zero size must fail")
	}
	if _, err := (BernoulliWorkload{SizeFlits: 1, Cycles: 0}).Generate(net, tm); err == nil {
		t.Error("zero cycles must fail")
	}
	small, _ := smallMesh(t, 4, 4, 0)
	if _, err := (BernoulliWorkload{SizeFlits: 1, Cycles: 10}).Generate(net, uniformMatrix(t, small, 0.1)); err == nil {
		t.Error("size mismatch must fail")
	}
	// Rate above 1 packet/cycle is rejected.
	hot := uniformMatrix(t, net, 0.9)
	if _, err := (BernoulliWorkload{SizeFlits: 1, Cycles: 10, Seed: 1}).Generate(net, hot.Scaled(2)); err == nil {
		t.Error("super-unit packet rate must fail")
	}
}

// TestPercentilesPopulated: a simulated run fills the latency percentiles
// consistently (P50 ≤ mean-ish ≤ P95 ≤ P99 ≤ max).
func TestPercentilesPopulated(t *testing.T) {
	net, tab, tm := workloadNet(t)
	w := BernoulliWorkload{SizeFlits: 4, Cycles: 3000, Seed: 2}
	pkts, err := w.Generate(net, tm)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(net, tab, DefaultConfig())
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
	if st.P50PacketLatencyClks <= 0 {
		t.Error("P50 not populated")
	}
	if !(st.P50PacketLatencyClks <= st.P95PacketLatencyClks &&
		st.P95PacketLatencyClks <= st.P99PacketLatencyClks &&
		st.P99PacketLatencyClks <= float64(st.MaxPacketLatencyClks)) {
		t.Errorf("percentile ordering broken: %v / %v / %v / %v",
			st.P50PacketLatencyClks, st.P95PacketLatencyClks,
			st.P99PacketLatencyClks, st.MaxPacketLatencyClks)
	}
}
