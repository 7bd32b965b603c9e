package noc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/tech"
	"repro/internal/topology"
)

func smallMesh(t testing.TB, w, h, hops int) (*topology.Network, *routing.Table) {
	t.Helper()
	c := topology.DefaultConfig()
	c.Width, c.Height = w, h
	c.ExpressHops = hops
	c.ExpressTech = tech.HyPPI
	net, err := topology.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	return net, routing.MustBuild(net, routing.MonotoneExpress)
}

// newSim builds a Table II simulator with the per-cycle invariant check
// armed.
func newSim(t testing.TB, net *topology.Network, tab *routing.Table) *Sim {
	t.Helper()
	s, err := New(net, tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	CheckInvariants(t, s)
	return s
}

// TestZeroLoadLatencyMatchesAnalytic: a single packet's simulated latency
// must equal the routing table's zero-load model exactly: hops×(pipeline +
// link latency) + pipeline, plus serialization for multi-flit packets.
func TestZeroLoadLatencyMatchesAnalytic(t *testing.T) {
	net, tab := smallMesh(t, 16, 16, 3)
	cases := []struct {
		src, dst topology.NodeID
		size     int
	}{
		{net.Node(0, 0), net.Node(1, 0), 1},
		{net.Node(0, 0), net.Node(12, 0), 1},  // pure express route
		{net.Node(2, 3), net.Node(9, 11), 1},  // mixed route
		{net.Node(0, 0), net.Node(1, 0), 32},  // serialization
		{net.Node(5, 5), net.Node(5, 5), 1},   // self delivery
		{net.Node(15, 15), net.Node(0, 0), 8}, // long reverse route
	}
	for _, c := range cases {
		s := newSim(t, net, tab)
		if err := s.Inject(Packet{Src: c.src, Dst: c.dst, SizeFlits: c.size, Release: 0}); err != nil {
			t.Fatal(err)
		}
		st, err := s.Run()
		if err != nil {
			t.Fatalf("%d->%d: %v", c.src, c.dst, err)
		}
		want := int64(tab.LatencyClks(c.src, c.dst, 3) + c.size - 1)
		if int64(st.AvgPacketLatencyClks) != want {
			t.Errorf("%d->%d size %d: latency %v, want %d",
				c.src, c.dst, c.size, st.AvgPacketLatencyClks, want)
		}
	}
}

// TestFlitConservation: everything injected must eject, exactly once.
func TestFlitConservation(t *testing.T) {
	net, tab := smallMesh(t, 8, 8, 3)
	s := newSim(t, net, tab)
	rng := rand.New(rand.NewSource(7))
	var totalFlits int64
	const packets = 500
	for i := 0; i < packets; i++ {
		size := 1
		if rng.Intn(2) == 0 {
			size = 32
		}
		src := topology.NodeID(rng.Intn(net.NumNodes()))
		dst := topology.NodeID(rng.Intn(net.NumNodes()))
		totalFlits += int64(size)
		if err := s.Inject(Packet{Src: src, Dst: dst, SizeFlits: size, Release: int64(rng.Intn(2000))}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.PacketsInjected != packets || st.PacketsEjected != packets {
		t.Errorf("packets: injected %d, ejected %d, want %d", st.PacketsInjected, st.PacketsEjected, packets)
	}
	if st.FlitsInjected != totalFlits || st.FlitsEjected != totalFlits {
		t.Errorf("flits: injected %d, ejected %d, want %d", st.FlitsInjected, st.FlitsEjected, totalFlits)
	}
	// Channel traversals match ejections plus per-hop counts: every
	// link flit must also eject, so Σ RouterFlits = FlitsEjected + Σ LinkFlits.
	var linkSum, routerSum int64
	for _, v := range st.LinkFlits {
		linkSum += v
	}
	for _, v := range st.RouterFlits {
		routerSum += v
	}
	if routerSum != st.FlitsInjected+linkSum {
		t.Errorf("router traversals %d != injected %d + link traversals %d", routerSum, st.FlitsInjected, linkSum)
	}
}

// TestDeterminism: identical inputs give bit-identical statistics.
func TestDeterminism(t *testing.T) {
	net, tab := smallMesh(t, 8, 8, 3)
	run := func() Stats {
		s := newSim(t, net, tab)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 300; i++ {
			s.Inject(Packet{
				Src:       topology.NodeID(rng.Intn(net.NumNodes())),
				Dst:       topology.NodeID(rng.Intn(net.NumNodes())),
				SizeFlits: 1 + rng.Intn(31),
				Release:   int64(rng.Intn(500)),
			})
		}
		st, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.AvgPacketLatencyClks != b.AvgPacketLatencyClks ||
		a.MaxPacketLatencyClks != b.MaxPacketLatencyClks || a.FlitsEjected != b.FlitsEjected {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.LinkFlits {
		if a.LinkFlits[i] != b.LinkFlits[i] {
			t.Fatalf("link %d flit count differs", i)
		}
	}
}

// TestSinglePacketPathAccounting: link and router flit counters follow the
// routed path exactly.
func TestSinglePacketPathAccounting(t *testing.T) {
	net, tab := smallMesh(t, 8, 8, 0)
	s := newSim(t, net, tab)
	src, dst := net.Node(1, 1), net.Node(4, 5)
	const size = 5
	s.Inject(Packet{Src: src, Dst: dst, SizeFlits: size, Release: 0})
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := tab.Path(src, dst)
	onPath := map[topology.LinkID]bool{}
	for _, lid := range path {
		onPath[lid] = true
	}
	for lid, count := range st.LinkFlits {
		want := int64(0)
		if onPath[topology.LinkID(lid)] {
			want = size
		}
		if count != want {
			t.Errorf("link %d carried %d flits, want %d", lid, count, want)
		}
	}
	// Each flit traverses hops+1 routers.
	var routerSum int64
	for _, v := range st.RouterFlits {
		routerSum += v
	}
	if want := int64(size * (len(path) + 1)); routerSum != want {
		t.Errorf("router traversals %d, want %d", routerSum, want)
	}
	if st.AvgHopCount != float64(len(path)) {
		t.Errorf("hop count %v, want %d", st.AvgHopCount, len(path))
	}
}

// TestSelfDeliveryUsesNoLinks: src == dst packets never touch a channel.
func TestSelfDeliveryUsesNoLinks(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	s := newSim(t, net, tab)
	s.Inject(Packet{Src: 5, Dst: 5, SizeFlits: 3, Release: 0})
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for lid, c := range st.LinkFlits {
		if c != 0 {
			t.Errorf("link %d carried %d flits for a self delivery", lid, c)
		}
	}
	if st.AvgHopCount != 0 {
		t.Errorf("self delivery hop count %v", st.AvgHopCount)
	}
}

// TestContentionRaisesLatency: many nodes hammering one destination drain
// correctly with latencies above zero load.
func TestContentionRaisesLatency(t *testing.T) {
	net, tab := smallMesh(t, 8, 8, 0)
	s := newSim(t, net, tab)
	dst := net.Node(4, 4)
	for n := 0; n < net.NumNodes(); n++ {
		if topology.NodeID(n) == dst {
			continue
		}
		for k := 0; k < 4; k++ {
			s.Inject(Packet{Src: topology.NodeID(n), Dst: dst, SizeFlits: 8, Release: 0})
		}
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 63 sources × 4 packets × 8 flits into one ejection port: the sink
	// drains 1 flit/cycle, so the run needs at least 2016 cycles.
	if st.Cycles < 2016 {
		t.Errorf("hotspot drained impossibly fast: %d cycles", st.Cycles)
	}
	if st.AvgPacketLatencyClks < 100 {
		t.Errorf("hotspot latency %v suspiciously low", st.AvgPacketLatencyClks)
	}
	if st.PacketsEjected != 63*4 {
		t.Errorf("ejected %d packets, want %d", st.PacketsEjected, 63*4)
	}
}

// TestExpressLinksCutSimulatedLatency: the paper's core claim at the
// simulator level — long-range traffic completes faster with express links.
func TestExpressLinksCutSimulatedLatency(t *testing.T) {
	run := func(hops int) float64 {
		net, tab := smallMesh(t, 16, 16, hops)
		s := newSim(t, net, tab)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 400; i++ {
			// Row-end to row-end traffic: maximally long-range.
			y := rng.Intn(16)
			s.Inject(Packet{
				Src:       net.Node(0, y),
				Dst:       net.Node(15, rng.Intn(16)),
				SizeFlits: 1,
				Release:   int64(rng.Intn(4000)),
			})
		}
		st, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.AvgPacketLatencyClks
	}
	plain := run(0)
	express := run(15)
	if express >= plain {
		t.Errorf("express latency %v should beat plain %v for long-range traffic", express, plain)
	}
	if plain/express < 1.2 {
		t.Errorf("expected a clear win, got %v vs %v", plain, express)
	}
}

// TestBackpressure: a source bursting into a single path respects buffer
// bounds (no flit loss, drains).
func TestBackpressure(t *testing.T) {
	net, tab := smallMesh(t, 4, 1, 0)
	s := newSim(t, net, tab)
	for i := 0; i < 50; i++ {
		s.Inject(Packet{Src: 0, Dst: 3, SizeFlits: 32, Release: 0})
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.FlitsEjected != 50*32 {
		t.Errorf("ejected %d flits, want %d", st.FlitsEjected, 50*32)
	}
	// Pipeline throughput: ejection drains 1 flit/cycle, so ≥1600 cycles.
	if st.Cycles < 1600 {
		t.Errorf("burst drained in %d cycles, impossible under 1 flit/cycle ejection", st.Cycles)
	}
}

// TestMaxCyclesGuard: an unreachable drain reports an error instead of
// spinning forever.
func TestMaxCyclesGuard(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	cfg := DefaultConfig()
	cfg.MaxCycles = 10
	s, err := New(net, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.Inject(Packet{Src: 0, Dst: 15, SizeFlits: 32, Release: 0})
	}
	if _, err := s.Run(); err == nil {
		t.Error("expected MaxCycles error")
	}
}

func TestInjectValidation(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	s := newSim(t, net, tab)
	if err := s.Inject(Packet{Src: 0, Dst: 1, SizeFlits: 0}); err == nil {
		t.Error("zero size must fail")
	}
	if err := s.Inject(Packet{Src: 0, Dst: 99, SizeFlits: 1}); err == nil {
		t.Error("out-of-range dst must fail")
	}
	if err := s.Inject(Packet{Src: -1, Dst: 1, SizeFlits: 1}); err == nil {
		t.Error("out-of-range src must fail")
	}
	if err := s.Inject(Packet{Src: 0, Dst: 1, SizeFlits: 1, Release: -5}); err == nil {
		t.Error("negative release must fail")
	}
}

func TestConfigValidation(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	bad := []struct {
		cfg  Config
		want error // named error, nil = any error
	}{
		{Config{VCs: 0, BufDepthFlits: 8, PipelineClks: 3}, nil},
		{Config{VCs: 4, BufDepthFlits: 0, PipelineClks: 3}, nil},
		{Config{VCs: 4, BufDepthFlits: 8, PipelineClks: 0}, nil},
		// VC sets are 64-bit masks and VC indices int8: 200 VCs would
		// wrap the class-0 partition to a negative size.
		{Config{VCs: MaxVCs + 1, BufDepthFlits: 8, PipelineClks: 3}, ErrVCsOutOfRange},
		{Config{VCs: 200, BufDepthFlits: 8, PipelineClks: 3}, ErrVCsOutOfRange},
		// Credits are int16: a 40000-flit depth would wrap negative and
		// nothing could ever be sent.
		{Config{VCs: 4, BufDepthFlits: MaxBufDepthFlits + 1, PipelineClks: 3}, ErrBufDepthOutOfRange},
		{Config{VCs: 4, BufDepthFlits: 40000, PipelineClks: 3}, ErrBufDepthOutOfRange},
	}
	for i, c := range bad {
		_, err := New(net, tab, c.cfg)
		if err == nil {
			t.Errorf("config %d %+v must be rejected", i, c.cfg)
		} else if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("config %d %+v: got %v, want %v", i, c.cfg, err, c.want)
		}
	}
	// The bounds themselves are representable.
	for _, c := range []Config{
		{VCs: MaxVCs, BufDepthFlits: 8, PipelineClks: 3},
		{VCs: 4, BufDepthFlits: MaxBufDepthFlits, PipelineClks: 3},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}

// TestMaxVCsRun drives a run at the widest VC count the per-port masks
// hold, under the per-cycle invariant check. On the row-closure geometry
// dateline-crossing packets ride the top VC (63), so the input round-robin
// pointer reaches 64, the full width of the mask rotation.
func TestMaxVCsRun(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 3)
	cfg := Config{VCs: MaxVCs, BufDepthFlits: 2, PipelineClks: 3}
	s, err := New(net, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	CheckInvariants(t, s)
	if err := s.InjectAll(randomBurst(net, 800, 5)); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.PacketsEjected != 800 || st.FlitsEjected != st.FlitsInjected {
		t.Errorf("ejected %d packets, %d/%d flits", st.PacketsEjected, st.FlitsEjected, st.FlitsInjected)
	}
}

func TestMismatchedTableRejected(t *testing.T) {
	netA, _ := smallMesh(t, 4, 4, 0)
	_, tabB := smallMesh(t, 4, 4, 0)
	if _, err := New(netA, tabB, DefaultConfig()); err == nil {
		t.Error("table for another network must be rejected")
	}
}

// TestIdleGapFastForward: trace gaps are skipped, not simulated — a packet
// released at cycle 10^9 still completes promptly in wall time.
func TestIdleGapFastForward(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	s := newSim(t, net, tab)
	s.Inject(Packet{Src: 0, Dst: 1, SizeFlits: 1, Release: 0})
	s.Inject(Packet{Src: 0, Dst: 1, SizeFlits: 1, Release: 1_000_000_000})
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 1_000_000_000 {
		t.Errorf("clock did not advance past the gap: %d", st.Cycles)
	}
	// Latency of the late packet is still zero-load (7 clks), so the
	// average of both is 7.
	if st.AvgPacketLatencyClks != 7 {
		t.Errorf("avg latency %v, want 7", st.AvgPacketLatencyClks)
	}
}

// TestConservationProperty: random workloads always drain and conserve
// flits (property-based).
func TestConservationProperty(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	f := func(seed int64, n uint8) bool {
		s, err := New(net, tab, DefaultConfig())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		total := int64(0)
		count := int(n%50) + 1
		for i := 0; i < count; i++ {
			size := 1 + rng.Intn(32)
			total += int64(size)
			if err := s.Inject(Packet{
				Src:       topology.NodeID(rng.Intn(16)),
				Dst:       topology.NodeID(rng.Intn(16)),
				SizeFlits: size,
				Release:   int64(rng.Intn(100)),
			}); err != nil {
				return false
			}
		}
		st, err := s.Run()
		if err != nil {
			return false
		}
		return st.FlitsEjected == total && st.PacketsEjected == int64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHeavyRandomLoadNoDeadlock: 16×16 express topology at the paper's 0.1
// injection rate for a sustained window must drain (deadlock freedom of the
// monotone policy under VC flow control).
func TestHeavyRandomLoadNoDeadlock(t *testing.T) {
	net, tab := smallMesh(t, 16, 16, 3)
	s := newSim(t, net, tab)
	rng := rand.New(rand.NewSource(11))
	horizon := 3000
	if testing.Short() {
		horizon = 500
	}
	for node := 0; node < net.NumNodes(); node++ {
		for cyc := 0; cyc < horizon; cyc++ {
			if rng.Float64() < 0.1/4.0 { // ~0.1 flits/cycle with avg 4-flit packets
				size := 1
				if rng.Intn(4) == 0 {
					size = 13
				}
				s.Inject(Packet{
					Src:       topology.NodeID(node),
					Dst:       topology.NodeID(rng.Intn(net.NumNodes())),
					SizeFlits: size,
					Release:   int64(cyc),
				})
			}
		}
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.PacketsEjected != st.PacketsInjected {
		t.Errorf("lost packets: %d vs %d", st.PacketsEjected, st.PacketsInjected)
	}
	if st.AvgPacketLatencyClks <= 0 {
		t.Error("latency must be positive")
	}
}
