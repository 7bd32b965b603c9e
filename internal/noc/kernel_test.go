package noc

import (
	"reflect"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestRingGrowPreservesFIFO: the defensive grow path must keep FIFO order
// across a wrapped head — the hot path never triggers it (queues are
// credit-bounded), so it gets exercised directly here.
func TestRingGrowPreservesFIFO(t *testing.T) {
	r := newRing[int](2)
	// Wrap the head first so grow has to unroll a split buffer.
	r.push(0)
	r.push(1)
	if got := r.pop(); got != 0 {
		t.Fatalf("pop = %d, want 0", got)
	}
	r.push(2) // buffer now [2, 1] with head at index 1
	for v := 3; v < 20; v++ {
		r.push(v) // repeated grows
	}
	if r.len() != 19 {
		t.Fatalf("len = %d, want 19", r.len())
	}
	if *r.front() != 1 {
		t.Fatalf("front = %d, want 1", *r.front())
	}
	for want := 1; want < 20; want++ {
		if got := r.pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
	if r.len() != 0 {
		t.Fatalf("len = %d after draining", r.len())
	}
}

// TestRingGrowZeroCapacity: newRing clamps to a usable capacity.
func TestRingGrowZeroCapacity(t *testing.T) {
	r := newRing[int](0)
	for v := 0; v < 5; v++ {
		r.push(v)
	}
	for want := 0; want < 5; want++ {
		if got := r.pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
}

// TestArrivalCalendarSizing: the calendar must have strictly more buckets
// than the largest send-to-arrival delay (1 + channel latency), otherwise a
// send could refile into the bucket being drained. HyPPI express channels
// have 2-clock latency, so the hybrid needs ≥4 buckets.
func TestArrivalCalendarSizing(t *testing.T) {
	for _, hops := range []int{0, 3} {
		net, tab := smallMesh(t, 8, 8, hops)
		s := newSim(t, net, tab)
		maxLat := 0
		for _, l := range net.Links {
			if l.LatencyClks > maxLat {
				maxLat = l.LatencyClks
			}
		}
		if len(s.calendar) < maxLat+2 {
			t.Errorf("hops=%d: %d calendar buckets for max link latency %d, need ≥ %d",
				hops, len(s.calendar), maxLat, maxLat+2)
		}
	}
}

// TestArrivalCalendarDrains: after a run every bucket is empty and nothing
// is left in flight — the calendar's conservation invariant, exercised over
// mixed 1- and 2-clock channels under load.
func TestArrivalCalendarDrains(t *testing.T) {
	net, tab := smallMesh(t, 8, 8, 3) // HyPPI express: 2-clock channels
	s := newSim(t, net, tab)
	pkts := bernoulliPackets(t, net, "uniform", 0.3, 17)
	if err := s.InjectAll(pkts); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.FlitsEjected != st.FlitsInjected {
		t.Fatalf("ejected %d of %d flits", st.FlitsEjected, st.FlitsInjected)
	}
	if s.inflight != 0 {
		t.Errorf("inflight = %d after drain", s.inflight)
	}
	for i, b := range s.calendar {
		if len(b) != 0 {
			t.Errorf("calendar bucket %d holds %d arrivals after drain", i, len(b))
		}
	}
}

// bernoulliPackets draws a workload for a named registry pattern.
func bernoulliPackets(t testing.TB, net *topology.Network, pattern string, rate float64, seed int64) []Packet {
	t.Helper()
	p, err := traffic.Lookup(pattern)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := p.Generate(net, rate)
	if err != nil {
		t.Fatal(err)
	}
	w := BernoulliWorkload{SizeFlits: 1, Cycles: 800, Seed: seed}
	pkts, err := w.Generate(net, tm)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// TestResetReuseBitIdentical: a Reset simulator must be indistinguishable
// from a fresh one — the contract SimPool relies on. Every pattern runs
// twice on a fresh Sim and once on one shared, serially Reset Sim; all
// Stats must match bit for bit. Topologies cover the plain mesh, the
// hybrid (mixed channel latencies) and the row-closure dateline
// configuration (classed VC allocation state).
func TestResetReuseBitIdentical(t *testing.T) {
	patterns := []string{"uniform", "tornado", "transpose", "hotspot"}
	for _, hops := range []int{0, 3, 7} {
		net, tab := smallMesh(t, 8, 8, hops)
		fresh := make([]Stats, len(patterns))
		for i, name := range patterns {
			s := newSim(t, net, tab)
			if err := s.InjectAll(bernoulliPackets(t, net, name, 0.25, int64(40+i))); err != nil {
				t.Fatal(err)
			}
			st, err := s.Run()
			if err != nil {
				t.Fatalf("hops=%d %s: %v", hops, name, err)
			}
			fresh[i] = st
		}
		reused := newSim(t, net, tab)
		for i, name := range patterns {
			if i > 0 {
				reused.Reset()
			}
			if err := reused.InjectAll(bernoulliPackets(t, net, name, 0.25, int64(40+i))); err != nil {
				t.Fatal(err)
			}
			st, err := reused.Run()
			if err != nil {
				t.Fatalf("hops=%d %s (reused): %v", hops, name, err)
			}
			if !reflect.DeepEqual(fresh[i], st) {
				t.Errorf("hops=%d %s: Reset-reused stats differ from fresh run:\nfresh:  %+v\nreused: %+v",
					hops, name, fresh[i], st)
			}
		}
	}
}

// TestResetAfterFailedRun: a Sim that hit MaxCycles mid-flight (buffers,
// calendar and heap all populated) must still Reset to a bit-identical
// fresh state.
func TestResetAfterFailedRun(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	cfg := DefaultConfig()
	// Low enough that the 9600-flit overload cannot drain, high enough
	// that the post-Reset single packet finishes.
	cfg.MaxCycles = 200
	overload := func(s *Sim) {
		for i := 0; i < 300; i++ {
			if err := s.Inject(Packet{Src: 0, Dst: 15, SizeFlits: 32, Release: 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := New(net, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	overload(s)
	if _, err := s.Run(); err == nil {
		t.Fatal("overload must exceed MaxCycles")
	}
	s.Reset()
	if err := s.Inject(Packet{Src: 0, Dst: 15, SizeFlits: 4, Release: 0}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(net, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Inject(Packet{Src: 0, Dst: 15, SizeFlits: 4, Release: 0}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("post-failure Reset diverges:\nfresh: %+v\nreset: %+v", want, got)
	}
}

// TestRunTwiceWithoutResetRejected: reuse without Reset is a bug, not a
// silent rerun.
func TestRunTwiceWithoutResetRejected(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	s := newSim(t, net, tab)
	if err := s.Inject(Packet{Src: 0, Dst: 1, SizeFlits: 1, Release: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run without Reset must fail")
	}
}

// TestStatsSurviveReset: Stats returned by Run own their flit counters —
// Reset hands the arrays off instead of zeroing them under the caller.
func TestStatsSurviveReset(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	s := newSim(t, net, tab)
	if err := s.Inject(Packet{Src: 0, Dst: 15, SizeFlits: 3, Release: 0}); err != nil {
		t.Fatal(err)
	}
	first, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var linkSum int64
	for _, v := range first.LinkFlits {
		linkSum += v
	}
	if linkSum == 0 {
		t.Fatal("run carried no link flits")
	}
	s.Reset()
	if err := s.Inject(Packet{Src: 3, Dst: 12, SizeFlits: 1, Release: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var after int64
	for _, v := range first.LinkFlits {
		after += v
	}
	if after != linkSum {
		t.Errorf("first run's LinkFlits mutated by reuse: %d -> %d", linkSum, after)
	}
}

// TestSimPoolReusesInstances: Get after Put returns the pooled instance for
// the same key and a fresh one for a different key; a nil pool still works.
func TestSimPoolReusesInstances(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	pool := NewSimPool()
	a, err := pool.Get(net, tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(a)
	b, err := pool.Get(net, tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same-key Get after Put must reuse the pooled Sim")
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 99
	c, err := pool.Get(net, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == b {
		t.Error("different config must not share a pooled Sim")
	}
	var nilPool *SimPool
	d, err := nilPool.Get(net, tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nilPool.Put(d) // must not panic
}

// TestHeapOrdersReleases: the release heap pops sources in (release, node)
// order whatever the push order.
func TestHeapOrdersReleases(t *testing.T) {
	net, tab := smallMesh(t, 4, 4, 0)
	s := newSim(t, net, tab)
	pushes := []srcRel{{9, 3}, {1, 7}, {4, 2}, {1, 2}, {9, 0}, {0, 5}, {4, 1}}
	for _, e := range pushes {
		s.heapPush(e)
	}
	want := []srcRel{{0, 5}, {1, 2}, {1, 7}, {4, 1}, {4, 2}, {9, 0}, {9, 3}}
	for i, w := range want {
		if got := s.heapPop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	_ = tab
}

// TestExpressLatencyStillExact: mixed-latency channels through the arrival
// calendar keep the exact zero-load model — a pure express route on
// 2-clock HyPPI channels.
func TestExpressLatencyStillExact(t *testing.T) {
	net, tab := smallMesh(t, 16, 1, 5)
	s := newSim(t, net, tab)
	src, dst := net.Node(0, 0), net.Node(15, 0)
	if err := s.Inject(Packet{Src: src, Dst: dst, SizeFlits: 1, Release: 0}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(tab.LatencyClks(src, dst, DefaultConfig().PipelineClks))
	if st.AvgPacketLatencyClks != want {
		t.Errorf("latency %v, want %v", st.AvgPacketLatencyClks, want)
	}
}
