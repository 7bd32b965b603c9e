package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/tech"
)

// TestExploreSerialParallelIdentical: the concurrent engine must return
// bit-identical ExplorationResults to the serial path for every worker
// count — the core determinism contract of the runner rewiring. Run with
// -race to also catch data races between jobs.
func TestExploreSerialParallelIdentical(t *testing.T) {
	o := DefaultOptions()
	pts := DefaultDesignSpace()
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		// A slice of the space across fewer pool sizes keeps the check
		// meaningful at a fraction of the cost.
		pts = pts[:6]
		workerCounts = []int{3}
	}
	serial, err := ExploreContext(context.Background(), pts, o, runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		par, err := ExploreContext(context.Background(), pts, o, runner.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Errorf("workers=%d: result %d (%v) differs:\nserial:   %+v\nparallel: %+v",
					workers, i, pts[i], serial[i], par[i])
			}
		}
	}
}

// TestTraceExperimentsSerialParallelIdentical: batched cycle-accurate trace
// runs are bit-identical across worker counts (same seed, any pool size).
func TestTraceExperimentsSerialParallelIdentical(t *testing.T) {
	o := DefaultOptions()
	k := npb.DefaultConfig(npb.LU)
	k.Iterations = 1
	k.Scale = 1.0 / 64
	var jobs []TraceJob
	for _, hops := range []int{0, 3, 5} {
		jobs = append(jobs, TraceJob{Kernel: k, Point: DesignPoint{
			Base: tech.Electronic, Express: tech.HyPPI, Hops: hops}})
	}
	serial, err := RunTraceExperiments(context.Background(), jobs, o, noc.DefaultConfig(), runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunTraceExperiments(context.Background(), jobs, o, noc.DefaultConfig(), runner.Config{Workers: len(jobs)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Errorf("job %d (%v): serial and parallel TraceResults differ", i, jobs[i].Point)
		}
	}
}

// TestTraceExperimentsPooledMatchesFresh: the batch path recycles
// simulators through a noc.SimPool while the single-experiment path builds
// fresh ones — results must be bit-identical, per-job and across repeated
// batches (warm network cache, warm pools). This is the core-layer
// enforcement of the Sim.Reset reuse contract; run under -race via
// make race.
func TestTraceExperimentsPooledMatchesFresh(t *testing.T) {
	o := DefaultOptions()
	k := npb.DefaultConfig(npb.LU)
	k.Iterations = 1
	k.Scale = 1.0 / 64
	var jobs []TraceJob
	// Repeating design points makes the pool actually reuse simulators
	// (a kernel ladder on a fixed point is the hyppi-sim shape).
	for _, hops := range []int{0, 3, 0, 3} {
		jobs = append(jobs, TraceJob{Kernel: k, Point: DesignPoint{
			Base: tech.Electronic, Express: tech.HyPPI, Hops: hops}})
	}
	fresh := make([]TraceResult, len(jobs))
	for i, j := range jobs {
		r, err := RunTraceExperiment(j.Kernel, j.Point, o, noc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = r
	}
	for round := 0; round < 2; round++ {
		for _, workers := range []int{1, 3} {
			pooled, err := RunTraceExperiments(context.Background(), jobs, o,
				noc.DefaultConfig(), runner.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range fresh {
				if !reflect.DeepEqual(fresh[i], pooled[i]) {
					t.Errorf("round %d workers=%d job %d (%v): pooled result differs from fresh",
						round, workers, i, jobs[i].Point)
				}
			}
		}
	}
}

// TestTraceJobEventsMatchKernelJobs: a job replaying an already-generated
// kernel trace through TraceJob.Events is the same pipeline as the kernel
// job — identical results, the Kernel label included — for any pool size,
// and a trace addressing more ranks than the network has nodes is an
// error.
func TestTraceJobEventsMatchKernelJobs(t *testing.T) {
	o := DefaultOptions()
	k := npb.DefaultConfig(npb.CG)
	k.Iterations = 1
	k.Scale = 1.0 / 256
	events, err := npb.Generate(k)
	if err != nil {
		t.Fatal(err)
	}
	var jobs, replays []TraceJob
	for _, hops := range []int{0, 3, 5, 15} {
		p := DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: hops}
		jobs = append(jobs, TraceJob{Kernel: k, Point: p})
		replays = append(replays, TraceJob{Kernel: npb.Config{Kernel: k.Kernel}, Point: p, Events: events})
	}
	want, err := RunTraceExperiments(context.Background(), jobs, o, noc.DefaultConfig(), runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := RunTraceExperiments(context.Background(), replays, o, noc.DefaultConfig(),
			runner.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d %v: replay differs from the kernel job", workers, jobs[i].Point)
			}
		}
	}
	small := o
	small.Topology.Width, small.Topology.Height = 4, 4
	if _, err := RunTraceExperiments(context.Background(), replays[:1], small, noc.DefaultConfig(),
		runner.Config{}); err == nil {
		t.Error("256-rank trace replayed on a 4×4 network without error")
	}
}

// TestExploreRepeatedCallsIdentical: the process-wide network, table and
// traffic caches must not let one sweep's results leak into the next —
// repeated explorations are bit-identical.
func TestExploreRepeatedCallsIdentical(t *testing.T) {
	o := DefaultOptions()
	pts := DefaultDesignSpace()
	if testing.Short() {
		pts = pts[:4]
	}
	first, err := Explore(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Explore(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("repeated Explore calls diverge (cache contamination)")
	}
}

// TestScopedCacheMatchesDefault: Options.Cache with a private cache (and
// a nil NetworkCache building uncached) must be bit-identical to the
// process-wide default cache.
func TestScopedCacheMatchesDefault(t *testing.T) {
	o := DefaultOptions()
	pts := DefaultDesignSpace()[:4]
	def, err := Explore(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = NewNetworkCache()
	scoped, err := Explore(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, scoped) {
		t.Error("scoped-cache exploration diverges from default cache")
	}
	var nilCache *NetworkCache
	net, tab, err := nilCache.Get(o.Topology, o.Policy)
	if err != nil || net == nil || tab == nil {
		t.Fatalf("nil cache must build uncached: %v", err)
	}
	if _, err := nilCache.Soteriou(net, o.Traffic); err != nil {
		t.Fatalf("nil cache Soteriou: %v", err)
	}
}

// TestExploreCancellationPropagates: a cancelled context aborts the sweep
// with context.Canceled instead of returning partial results.
func TestExploreCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExploreContext(ctx, DefaultDesignSpace(), DefaultOptions(), runner.Config{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled sweep must not return results")
	}
}

// TestExploreParallelErrorMatchesSerial: an invalid design point fails the
// parallel sweep with the same per-point error the serial path reports.
func TestExploreParallelErrorMatchesSerial(t *testing.T) {
	o := DefaultOptions()
	pts := DefaultDesignSpace()
	if testing.Short() {
		pts = pts[:2]
	}
	pts = append(pts, DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 99})
	_, serialErr := ExploreContext(context.Background(), pts, o, runner.Config{Workers: 1})
	_, parErr := ExploreContext(context.Background(), pts, o, runner.Config{Workers: 8})
	if serialErr == nil || parErr == nil {
		t.Fatalf("both paths must fail: serial=%v parallel=%v", serialErr, parErr)
	}
	if serialErr.Error() != parErr.Error() {
		t.Errorf("error mismatch:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
}
