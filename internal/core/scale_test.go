package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/traffic"
)

// TestScaleSmoke is the CI scale gate: a 64×64 (4096-node) pattern sweep
// must finish interactively and in linear memory. Any resurrected n² data
// structure fails it loudly — a dense 4096² traffic matrix alone is
// ~134 MB and a dense next-hop table ~67 MB, both beyond the heap ceiling
// asserted below while the networks, tables and results are still live.
// The sweep exercises the full streamed-traffic + algorithmic-routing +
// cycle-skipping path: uniform and tornado at loads below their 64×64
// saturation points (≈0.06 and ≈0.03 flits/cycle).
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short mode")
	}
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 64, 64
	// A private cache scopes this geometry's memoized network/table to the
	// test, keeping the heap measurement honest.
	o.Cache = NewNetworkCache()

	patterns := make([]traffic.Pattern, 0, 2)
	for _, name := range []string{"uniform", "tornado"} {
		p, err := traffic.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, p)
	}
	nocCfg := noc.DefaultConfig()
	nocCfg.MaxCycles = 200000
	sc := EnergySweepConfig{
		Rates:    []float64{0.002, 0.005, 0.01},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 2000, Seed: 13},
		NoC:      nocCfg,
	}
	// The paper's dateline regime at scale: HyPPI row-closure express rings.
	points := []DesignPoint{{Base: tech.HyPPI, Express: tech.HyPPI, Hops: 63}}

	start := time.Now()
	results, err := PatternSweep(t.Context(), meshOnly, points, patterns, sc, o, runner.Config{Workers: 1})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(points)*len(patterns) {
		t.Fatalf("got %d results, want %d", len(results), len(points)*len(patterns))
	}
	for _, r := range results {
		for _, pt := range r.Curve {
			if pt.Saturated {
				t.Errorf("%s @ %v saturated — smoke loads must sit below the knee", r.Pattern, pt.InjectionRate)
			}
			if pt.AvgLatencyClks <= 0 {
				t.Errorf("%s @ %v: non-positive latency %v", r.Pattern, pt.InjectionRate, pt.AvgLatencyClks)
			}
		}
	}

	// Wall-clock budget: ~5× headroom over the measured runtime on the CI
	// runner class; a quadratic regression in routing, traffic or the
	// kernel blows through it.
	const wallBudget = 90 * time.Second
	if elapsed > wallBudget {
		t.Errorf("64x64 sweep took %v, budget %v", elapsed.Round(time.Millisecond), wallBudget)
	}

	// Heap ceiling while the networks, tables and curves are still
	// reachable: O(n) state for 4096 nodes fits comfortably; one dense
	// n² matrix or table does not.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const heapBudget = 128 << 20
	if ms.HeapAlloc > heapBudget {
		t.Errorf("HeapAlloc %d MiB after sweep, budget %d MiB — an n² structure is back",
			ms.HeapAlloc>>20, heapBudget>>20)
	}
	runtime.KeepAlive(results)
	runtime.KeepAlive(o)
}
