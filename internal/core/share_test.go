package core

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/analytic"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
)

// evaluateAlone is the per-point reference: analytic.Evaluate on the
// point's own fabric and traffic.
func evaluateAlone(t *testing.T, o Options, p DesignPoint) analytic.Result {
	t.Helper()
	net, tab, err := o.NetworkAndTable(p)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := o.cache().Soteriou(net, o.Traffic)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analytic.Evaluate(net, tab, tm, analytic.Params{DSENT: o.DSENT, RouterPipelineClks: o.RouterPipelineClks})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExploreSharedWalkMatchesEvaluate: Explore walks each route
// structure once, and every point's result is bit-identical to evaluating
// the point alone — under MonotoneExpress, where the default design
// space's 30 points form one group per hop length, and under
// ShortestHops, whose latency tie-break splits some technology variants
// into groups of their own.
func TestExploreSharedWalkMatchesEvaluate(t *testing.T) {
	for _, pol := range []routing.Policy{routing.MonotoneExpress, routing.ShortestHops} {
		o := DefaultOptions()
		o.Policy = pol
		o.Cache = NewNetworkCache()
		if testing.Short() {
			o.Topology.Width, o.Topology.Height = 8, 8
		}
		pts := DefaultDesignSpace()
		if testing.Short() {
			// 8×8 has no hops = 15 express.
			pts = slices.DeleteFunc(pts, func(p DesignPoint) bool { return p.Hops == 15 })
		}
		for _, workers := range []int{1, 3} {
			got, err := ExploreContext(context.Background(), pts, o, runner.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				if want := evaluateAlone(t, o, p); got[i].Result != want || got[i].Point != p {
					t.Errorf("%v workers=%d %v:\nshared %+v\nalone  %+v", pol, workers, p, got[i].Result, want)
				}
			}
		}
		groups := exploreGroups(t, o, pts)
		hopLengths := map[int]bool{}
		for _, p := range pts {
			hopLengths[p.Hops] = true
		}
		switch {
		case pol == routing.MonotoneExpress && groups != len(hopLengths):
			t.Errorf("%v: %d route walks for %d hop lengths", pol, groups, len(hopLengths))
		case pol == routing.ShortestHops && groups <= len(hopLengths):
			t.Errorf("%v: %d route walks; the latency tie-break should split some variants", pol, groups)
		}
	}
}

// exploreGroups counts the route walks an Explore of pts makes.
func exploreGroups(t *testing.T, o Options, pts []DesignPoint) int {
	t.Helper()
	batch := make([]explored, len(pts))
	for i, p := range pts {
		f, err := o.resolve(p, false)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := o.cache().Soteriou(f.net, o.Traffic)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = explored{fabric: f, tm: tm}
	}
	return len(routeGroups(batch))
}

// TestExploreKindsSharedWalkMatchesEvaluate: across kinds, the shared walk
// groups points only within a kind (each kind has its own traffic and
// wiring), and every result is bit-identical to evaluating its point
// alone — the torus's dateline rings included.
func TestExploreKindsSharedWalkMatchesEvaluate(t *testing.T) {
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	kinds := []topology.Kind{topology.Mesh, topology.Torus}
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic},
		{Base: tech.Photonic, Express: tech.Photonic},
		{Base: tech.HyPPI, Express: tech.HyPPI},
	}
	for _, pol := range []routing.Policy{routing.MonotoneExpress, routing.ShortestHops} {
		o.Policy = pol
		got, err := ExploreKinds(context.Background(), kinds, points, o, runner.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			kind, p := kinds[i/len(points)], points[i%len(points)]
			ko := o.WithKind(kind)
			net, _, err := ko.NetworkAndTable(p)
			if err != nil {
				t.Fatal(err)
			}
			want := KindExploration{Kind: kind, Point: p, Result: evaluateAlone(t, ko, p),
				NumNodes: net.NumNodes(), Channels: len(net.Links), MaxPorts: net.MaxPorts()}
			if r != want {
				t.Errorf("%v %v %v:\nshared %+v\nalone  %+v", pol, kind, p, r, want)
			}
		}
	}
}

// shareKernel is a small NPB configuration for the trace-batch tests.
func shareKernel(k npb.Kernel) npb.Config {
	cfg := npb.DefaultConfig(k)
	cfg.Iterations = 1
	cfg.Scale = 1.0 / 256
	return cfg
}

// TestTraceBatchSharedTracesMatchPerJob: a batch that repeats kernels and
// an Events slice prepares each distinct trace once, and every job's
// result is exactly the one it gets alone.
func TestTraceBatchSharedTracesMatchPerJob(t *testing.T) {
	o := DefaultOptions()
	events, err := npb.Generate(shareKernel(npb.CG))
	if err != nil {
		t.Fatal(err)
	}
	pt := func(hops int) DesignPoint { return DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: hops} }
	replay := npb.Config{Kernel: npb.CG}
	jobs := []TraceJob{
		{Kernel: shareKernel(npb.LU), Point: pt(0)},
		{Kernel: shareKernel(npb.FT), Point: pt(3)},
		{Kernel: replay, Point: pt(0), Events: events},
		{Kernel: shareKernel(npb.LU), Point: pt(3)},
		{Kernel: shareKernel(npb.FT), Point: pt(3)},
		{Kernel: replay, Point: pt(5), Events: events},
		{Kernel: shareKernel(npb.LU), Point: pt(0)},
	}
	want := make([]TraceResult, len(jobs))
	for i, j := range jobs {
		if j.Events == nil {
			want[i], err = RunTraceExperiment(j.Kernel, j.Point, o, noc.DefaultConfig())
		} else {
			var one []TraceResult
			one, err = RunTraceExperiments(context.Background(), jobs[i:i+1], o, noc.DefaultConfig(), runner.Config{})
			if err == nil {
				want[i] = one[0]
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 3} {
		got, err := RunTraceExperiments(context.Background(), jobs, o, noc.DefaultConfig(), runner.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d job %d (%v on %v): batch result differs from the job alone",
					workers, i, jobs[i].Kernel.Kernel, jobs[i].Point)
			}
		}
	}
}

// TestTraceBatchPreparesATraceOnce: four identical jobs allocate less than
// twice what one job does, because the batch generates and packetizes
// their trace once and recycles one simulator.
func TestTraceBatchPreparesATraceOnce(t *testing.T) {
	o := DefaultOptions()
	job := TraceJob{Kernel: shareKernel(npb.FT), Point: DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}}
	allocated := func(jobs []TraceJob) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunTraceExperiments(context.Background(), jobs, o, noc.DefaultConfig(), runner.Config{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated([]TraceJob{job}) // warm the network cache
	one := allocated([]TraceJob{job})
	four := allocated([]TraceJob{job, job, job, job})
	t.Logf("one job %d B, four jobs %d B", one, four)
	if four >= 2*one {
		t.Errorf("four identical jobs allocate %d B, one job %d B: want under 2×", four, one)
	}
}
