package loadtest

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

func fastEngine(t *testing.T) *serve.Engine {
	t.Helper()
	sc := core.DefaultEnergySweep()
	sc.Workload.Cycles = 400
	sc.NoC.MaxCycles = 20000
	e := serve.NewEngine(serve.Config{Sweep: sc, Workers: 2})
	t.Cleanup(e.Close)
	return e
}

// TestRunReportsRateAndHits: cycling the 12-query mix 10× must answer
// every query, evaluate each distinct query once in 10 simulations, and
// land the hit rate at 108/120.
func TestRunReportsRateAndHits(t *testing.T) {
	e := fastEngine(t)
	rep, err := Run(context.Background(), e, Config{Queries: 120, Clients: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 120 || rep.Failed != 0 {
		t.Fatalf("want 120 clean queries, got %+v", rep)
	}
	if rep.Distinct != uint64(len(DefaultMix())) {
		t.Errorf("want %d distinct evaluations, got %d", len(DefaultMix()), rep.Distinct)
	}
	// The latency, CLEAR and energy queries of uniform at 0.05 share one.
	if rep.Simulations != 10 {
		t.Errorf("want 10 simulations, got %d", rep.Simulations)
	}
	if want := 1 - float64(len(DefaultMix()))/120.0; rep.HitRate != want {
		t.Errorf("want hit rate %.3f, got %.3f", want, rep.HitRate)
	}
	if rep.QPS <= 0 {
		t.Errorf("nonpositive QPS: %+v", rep)
	}
	if rep.String() == "" {
		t.Error("empty summary")
	}
}

// TestRunBoundedCache: a cache cap smaller than the mix forces LRU churn
// — cycling the 12-query mix through 6 slots evicts on every round — yet
// every query still answers and the cache never exceeds its bound.
func TestRunBoundedCache(t *testing.T) {
	sc := core.DefaultEnergySweep()
	sc.Workload.Cycles = 400
	sc.NoC.MaxCycles = 20000
	e := serve.NewEngine(serve.Config{Sweep: sc, Workers: 2, CacheEntries: 6})
	t.Cleanup(e.Close)

	rep, err := Run(context.Background(), e, Config{Queries: 36, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("queries failed under the cache bound: %+v", rep)
	}
	if rep.Stats.CacheEntries > 6 {
		t.Errorf("cache exceeded its cap: %+v", rep.Stats)
	}
	if rep.Stats.Evictions == 0 {
		t.Errorf("cycling 12 distinct queries through 6 slots evicted nothing: %+v", rep.Stats)
	}
}

// TestRunPacing: with a target rate, the run cannot finish faster than
// the pacing allows (the harness meters offered load, not just capacity).
func TestRunPacing(t *testing.T) {
	e := fastEngine(t)
	rep, err := Run(context.Background(), e, Config{Queries: 20, Clients: 4, TargetQPS: 200})
	if err != nil {
		t.Fatal(err)
	}
	// 20 queries at 200 q/s are paced across ~95ms (queries 0..19 due at
	// i/200 s); generous upper bound keeps the check robust.
	if rep.QPS > 300 {
		t.Errorf("pacing ignored: %.1f q/s for a 200 q/s target", rep.QPS)
	}
}

// TestRunHonorsCancel: a canceled context aborts the run with its error.
func TestRunHonorsCancel(t *testing.T) {
	e := fastEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, e, Config{Queries: 50}); err == nil {
		t.Fatal("canceled run reported success")
	}
}
