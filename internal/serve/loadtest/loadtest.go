// Package loadtest replays a mixed query workload against a serve.Engine
// and reports sustained throughput and cache effectiveness — the harness
// behind `hyppi-serve -selftest` and the serve-smoke CI gate.
package loadtest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Config shapes one load run.
type Config struct {
	// Queries is the total number of queries to issue (default 120).
	Queries int
	// Clients is the number of concurrent client goroutines (default 8),
	// each drawing the next query from the shared mix.
	Clients int
	// TargetQPS paces the offered load; 0 issues queries as fast as the
	// engine answers them.
	TargetQPS float64
	// Mix is the cycled query workload (default DefaultMix). Cycling a
	// mix smaller than Queries is what exercises the cache: every query
	// past the first cycle should be a hit.
	Mix []serve.Request
}

func (c Config) withDefaults() Config {
	if c.Queries <= 0 {
		c.Queries = 120
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix()
	}
	return c
}

// DefaultMix is the standard smoke workload: 12 distinct queries across
// kinds, patterns, loads, wants and a kernel trace, all on 4×4 grids so a
// 1-CPU container evaluates the cold set in well under a second.
func DefaultMix() []serve.Request {
	return []serve.Request{
		{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05},
		{Width: 4, Height: 4, Pattern: "uniform", Load: 0.1},
		{Width: 4, Height: 4, Pattern: "tornado", Load: 0.05},
		{Width: 4, Height: 4, Pattern: "neighbor", Load: 0.1},
		{Width: 4, Height: 4, Pattern: "hotspot", Load: 0.05},
		{Width: 4, Height: 4, Pattern: "transpose", Load: 0.05},
		{Topology: "torus", Width: 4, Height: 4, Pattern: "uniform", Load: 0.05},
		{Topology: "fbfly", Width: 4, Height: 4, Pattern: "uniform", Load: 0.05},
		{Width: 4, Height: 4, Express: "HyPPI", Hops: 2, Pattern: "tornado", Load: 0.1},
		{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05, Want: serve.WantCLEAR},
		{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05, Want: serve.WantEnergy},
		{Width: 4, Height: 4, Kernel: "LU"},
	}
}

// Report is the outcome of one load run.
type Report struct {
	// Queries issued, split into OK answers and Failed rejections.
	Queries, OK, Failed int
	// Duration is wall clock for the whole run; QPS is Queries/Duration.
	Duration time.Duration
	QPS      float64
	// HitRate is the cache-join fraction over this run's queries (engine
	// stats delta, so a pre-warmed engine reports only this run).
	HitRate float64
	// Distinct is the number of evaluations this run triggered.
	Distinct uint64
	// Simulations is the number of kernel runs this run triggered: the
	// distinct queries that time alike share one.
	Simulations uint64
	// Stats snapshots the engine counters at the end of the run.
	Stats serve.Stats
}

// String renders the one-line summary the CLI prints.
func (r Report) String() string {
	return fmt.Sprintf("loadtest: %d queries (%d ok, %d failed) in %s = %.1f q/s, hit rate %.1f%%, %d evaluated, %d simulated",
		r.Queries, r.OK, r.Failed, r.Duration.Round(time.Millisecond), r.QPS,
		100*r.HitRate, r.Distinct, r.Simulations)
}

// Run replays the mix until cfg.Queries queries have been answered and
// reports the sustained rate. Clients share one query counter, so the mix
// is cycled exactly once per len(Mix) queries regardless of client count.
func Run(ctx context.Context, e *serve.Engine, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	before := e.Stats()
	var next atomic.Int64
	var ok, failed atomic.Int64
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Queries) || ctx.Err() != nil {
					return
				}
				if cfg.TargetQPS > 0 {
					due := start.Add(time.Duration(float64(i) / cfg.TargetQPS * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				req := cfg.Mix[int(i)%len(cfg.Mix)]
				req.ID = fmt.Sprintf("lt-%d", i)
				if resp := e.Do(ctx, req); resp.OK {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}

	after := e.Stats()
	rep := Report{
		Queries:     int(ok.Load() + failed.Load()),
		OK:          int(ok.Load()),
		Failed:      int(failed.Load()),
		Duration:    time.Since(start),
		Distinct:    after.Evaluations - before.Evaluations,
		Simulations: after.Simulations - before.Simulations,
		Stats:       after,
	}
	rep.QPS = float64(rep.Queries) / rep.Duration.Seconds()
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	if hits+misses > 0 {
		rep.HitRate = float64(hits) / float64(hits+misses)
	}
	return rep, nil
}
