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
// an Events slice prepares each distinct trace once, shares one
// simulation among the FT jobs on HyPPI and photonic express of one hop
// length, and every job's result is exactly the one it gets alone:
// latency, the per-technology activity census and the dynamic energy
// included.
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
	for _, express := range []tech.Technology{tech.HyPPI, tech.Photonic, tech.Electronic} {
		for _, hops := range []int{3, 5, 15} {
			jobs = append(jobs, TraceJob{Kernel: shareKernel(npb.FT),
				Point: DesignPoint{Base: tech.Electronic, Express: express, Hops: hops}})
		}
	}
	// FT on HyPPI and photonic express at hops 3 (jobs 1, 4, 7, 10), 5
	// and 15 are three runs; every other job simulates alone.
	if runs := countRuns(o.planTraces(jobs)); runs != len(jobs)-6 {
		t.Errorf("%d jobs make %d kernel runs, want %d", len(jobs), runs, len(jobs)-6)
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
// their trace once and simulates it once. Four jobs of that trace on four
// different timing models (electronic and HyPPI express at hops 3 and 5)
// simulate four times but still prepare the trace once: under three times
// one job, where preparing it per job would pass four.
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
	var timings []TraceJob
	for _, express := range []tech.Technology{tech.HyPPI, tech.Electronic} {
		for _, hops := range []int{3, 5} {
			timings = append(timings, TraceJob{Kernel: job.Kernel,
				Point: DesignPoint{Base: tech.Electronic, Express: express, Hops: hops}})
		}
	}
	allocated(timings) // warm the network cache
	one := allocated([]TraceJob{job})
	four := allocated([]TraceJob{job, job, job, job})
	mixed := allocated(timings)
	t.Logf("one job %d B, four identical jobs %d B, four timing models %d B", one, four, mixed)
	if four >= 2*one {
		t.Errorf("four identical jobs allocate %d B, one job %d B: want under 2×", four, one)
	}
	if mixed >= 3*one {
		t.Errorf("four jobs of one trace on four timing models allocate %d B, one job %d B: want under 3×", mixed, one)
	}
}

// countRuns counts a planned batch's distinct timing runs.
func countRuns(b traceBatch) int {
	runs := map[*timingRun]bool{}
	for _, r := range b.runs {
		runs[r] = true
	}
	return len(runs)
}

// paperTraceJobs is hyppi-all's Fig. 6 + Table V batch: the four kernels
// on the plain mesh and HyPPI express at three hop lengths, plus FT on
// electronic and photonic express.
func paperTraceJobs() []TraceJob {
	var jobs []TraceJob
	add := func(k npb.Kernel, express tech.Technology, hops int) {
		jobs = append(jobs, TraceJob{Kernel: shareKernel(k),
			Point: DesignPoint{Base: tech.Electronic, Express: express, Hops: hops}})
	}
	for _, k := range npb.Kernels {
		add(k, tech.HyPPI, 0)
		for _, hops := range []int{3, 5, 15} {
			add(k, tech.HyPPI, hops)
		}
	}
	for _, express := range []tech.Technology{tech.Electronic, tech.Photonic} {
		for _, hops := range []int{3, 5, 15} {
			add(npb.FT, express, hops)
		}
	}
	return jobs
}

// TestTraceBatchPaperKernelRuns: the paper's 22-job batch makes 19 kernel
// runs. The three photonic FT jobs join the HyPPI FT jobs of their hop
// length (both optical technologies are 2-clock links); the electronic
// express FT jobs, whose express links take 1 clock, run alone.
func TestTraceBatchPaperKernelRuns(t *testing.T) {
	jobs := paperTraceJobs()
	b := DefaultOptions().planTraces(jobs)
	if len(jobs) != 22 || countRuns(b) != 19 {
		t.Fatalf("%d jobs make %d kernel runs, want 22 and 19", len(jobs), countRuns(b))
	}
	for i, ji := range jobs {
		for j, jj := range jobs[:i] {
			shared := b.runs[i] == b.runs[j]
			want := ji.Kernel == jj.Kernel && ji.Point.Hops == jj.Point.Hops &&
				ji.Point.Express.IsOptical() && jj.Point.Express.IsOptical()
			if shared != want {
				t.Errorf("%v on %v and on %v: shared run %v, want %v",
					ji.Kernel.Kernel, ji.Point, jj.Point, shared, want)
			}
		}
	}
}

// TestTraceBatchTimingGroupsSplit: jobs that replay one trace share a run
// only when the kernel cannot tell their networks apart. Electronic
// express differs from HyPPI express in its links' latency; under
// ShortestHops the latency tie-break routes E/P and P/E of one wiring
// differently; and one network routed by two policies differs in its
// next hops alone.
func TestTraceBatchTimingGroupsSplit(t *testing.T) {
	job := func(base, express tech.Technology) TraceJob {
		return TraceJob{Kernel: shareKernel(npb.FT), Point: DesignPoint{Base: base, Express: express, Hops: 3}}
	}
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	b := o.planTraces([]TraceJob{job(tech.Electronic, tech.HyPPI), job(tech.Electronic, tech.Electronic)})
	if b.runs[0] == b.runs[1] {
		t.Error("E/E joined E/H: their express links' latencies differ")
	}
	o.Policy = routing.ShortestHops
	b = o.planTraces([]TraceJob{job(tech.Electronic, tech.Photonic), job(tech.Photonic, tech.Electronic),
		job(tech.Electronic, tech.HyPPI)})
	if b.fabs[0].tab.SameRoutes(b.fabs[1].tab) {
		t.Fatal("ShortestHops routes E/P and P/E identically; the tie-break case is gone")
	}
	if b.runs[0] == b.runs[1] {
		t.Error("ShortestHops E/P joined P/E")
	}
	if b.runs[0] != b.runs[2] {
		t.Error("ShortestHops E/P and E/H did not share a run")
	}

	// One network under two policies: same wiring, same latencies,
	// different next hops. MonotoneExpress ignores technologies, so on
	// P/E it routes as ShortestHops does on E/P.
	f := b.fabs[1]
	mono, err := routing.Build(f.net, routing.MonotoneExpress)
	if err != nil {
		t.Fatal(err)
	}
	if mono.SameRoutes(f.tab) {
		t.Fatal("MonotoneExpress and ShortestHops agree on P/E; the next-hop case is gone")
	}
	b.fabs[2] = fabric{net: f.net, tab: mono}
	if b.sameTiming(1, 2) {
		t.Error("one network under two routing policies shares a run")
	}
}

// TestTraceBatchSharedRunResultsIndependent: the jobs of one timing group
// get their own counter slices, so writing to one result's LinkFlits,
// RouterFlits or SourceFlits leaves the others' unchanged.
func TestTraceBatchSharedRunResultsIndependent(t *testing.T) {
	var jobs []TraceJob
	for _, express := range []tech.Technology{tech.HyPPI, tech.Photonic, tech.Plasmonic} {
		jobs = append(jobs, TraceJob{Kernel: shareKernel(npb.FT),
			Point: DesignPoint{Base: tech.Electronic, Express: express, Hops: 5}})
	}
	o := DefaultOptions()
	if countRuns(o.planTraces(jobs)) != 1 {
		t.Fatal("the optical express variants do not share a run")
	}
	got, err := RunTraceExperiments(context.Background(), jobs, o, noc.DefaultConfig(), runner.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(got[1].Stats.LinkFlits)
	wantRouters := slices.Clone(got[1].Stats.RouterFlits)
	wantSources := slices.Clone(got[1].Stats.Activity.SourceFlits)
	for _, r := range []TraceResult{got[0], got[2]} {
		for _, s := range [][]int64{r.Stats.LinkFlits, r.Stats.RouterFlits, r.Stats.Activity.SourceFlits} {
			for k := range s {
				s[k] = -1
			}
		}
	}
	if !slices.Equal(got[1].Stats.LinkFlits, want) || !slices.Equal(got[1].Stats.RouterFlits, wantRouters) ||
		!slices.Equal(got[1].Stats.Activity.SourceFlits, wantSources) {
		t.Error("writing to one job's counters changed another's")
	}
	if got[0].DynamicEnergyJ == got[1].DynamicEnergyJ || got[0].Stats.Activity.LinkFlitHops == got[1].Stats.Activity.LinkFlitHops {
		t.Error("HyPPI and photonic express priced or censused alike")
	}
}
