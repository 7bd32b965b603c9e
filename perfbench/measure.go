package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// params are the workload's fixed parameters, recorded as provenance.
	params map[string]any
	// setup builds, from the seed, everything the timed phase would
	// otherwise build lazily. With a non-nil tracer it also records spans
	// around the network and routing-table builds.
	setup func(cfg runConfig, tr *tracer) (bench, error)
}

// bench is a workload after setup.
type bench interface {
	// run executes one round through the library's public entry points,
	// recording one latency sample per operation into lat.
	run(ctx context.Context, lat *latencies) (round, error)
	// replay executes one round by making, from this package, the same
	// layer calls the entry points make, in the same order, with a span
	// around each call into a layer.
	replay(ctx context.Context, tr *tracer) (round, error)
	// layerMetrics returns the per-layer metrics the bench accumulated
	// over its traced rounds that no span or count gives, or nil.
	layerMetrics() map[string]float64
}

// round is the outcome of one round.
type round struct {
	// ops and failed count the operations attempted and failed.
	ops, failed int
	// digest hashes the round's simulated results.
	digest string
	// problems lists failed output checks.
	problems []string
}

// minRounds is the fewest rounds a timed phase runs, whatever the budget.
const minRounds = 3

// Set-up is timed in samples of setupBatch back-to-back set-ups, the batch
// sized so a sample lasts at least minSetupSample: a single set-up of a
// small workload takes well under a millisecond, too short to time
// steadily. At least minSetups samples are taken, and more until
// setupBudget has been spent; setup_s is the median of sample/setupBatch.
const (
	minSetupSample = 50 * time.Millisecond
	minSetups      = 5
	setupBudget    = 1500 * time.Millisecond
)

// outcome is everything a run measured.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	digest            string
	digestMismatch    bool
	problems          []string
	rounds            int
	roundWall         []float64
	roundAlloc        []float64
	// opMedianMS is each operation's median latency over the rounds, and
	// roundLatMS every round's operation latencies.
	opMedianMS []float64
	roundLatMS [][]float64
	// setup holds the per-set-up time of each set-up sample, and
	// setupBatch the set-ups in a sample.
	setup      []float64
	setupBatch int
	samples    int
	// spans are the traced run's set-up and round spans.
	spans []*tracer
}

// execute runs the set-up repetitions and the timed phase, and in traced
// mode the traced phase, and assembles the metrics.
func execute(ctx context.Context, w workload, cfg runConfig) (outcome, error) {
	out := outcome{metrics: map[string]float64{}}
	b, err := out.timeSetup(w, cfg)
	if err != nil {
		return out, err
	}

	// A traced run splits its budget between the untraced rounds, which
	// give the overhead baseline and the digest, and the traced rounds.
	budget := cfg.budget
	if cfg.traced {
		budget /= 2
	}
	var timed phase
	var qps []float64
	err = timed.run(budget, func(i int) (time.Duration, error) {
		lat := &latencies{}
		t0 := time.Now()
		r, err := b.run(ctx, lat)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		out.addRound(r, i)
		out.samples += len(lat.samples)
		qps = append(qps, float64(r.ops)/d.Seconds())
		ms := make([]float64, len(lat.samples))
		for j, d := range lat.samples {
			ms[j] = d.Seconds() * 1e3
		}
		out.roundLatMS = append(out.roundLatMS, ms)
		return d, nil
	})
	if err != nil {
		return out, err
	}
	if out.opMedianMS, err = opMedians(out.roundLatMS); err != nil {
		return out, err
	}
	out.roundWall, out.roundAlloc = timed.walls, timed.allocs
	out.rounds = len(timed.walls)
	out.metrics["wall_s"] = median(timed.walls)
	out.metrics["setup_s"] = median(out.setup)
	out.metrics["alloc_mb"] = median(timed.allocs) / 1e6
	out.metrics["qps"] = median(qps)
	out.metrics["p50_ms"] = quantile(out.opMedianMS, 0.50)
	out.metrics["p99_ms"] = quantile(out.opMedianMS, 0.99)
	if !cfg.traced {
		return out, nil
	}
	return out, tracedPhase(ctx, w, cfg, budget, &out)
}

// timeSetup times the workload's set-up in batched samples and returns
// the bench of the last set-up. The batch is the number of set-ups an
// untimed warm-up completes in minSetupSample.
func (o *outcome) timeSetup(w workload, cfg runConfig) (bench, error) {
	var b bench
	var err error
	for t0 := time.Now(); time.Since(t0) < minSetupSample; o.setupBatch++ {
		if b, err = w.setup(cfg, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	start := time.Now()
	for i := 0; i < minSetups || time.Since(start) < setupBudget; i++ {
		runtime.GC()
		t0 := time.Now()
		for range o.setupBatch {
			if b, err = w.setup(cfg, nil); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds()/float64(o.setupBatch))
	}
	return b, nil
}

// addRound folds one round's counts and checks into the outcome.
func (o *outcome) addRound(r round, i int) {
	o.attempted += r.ops
	o.failed += r.failed
	o.problems = append(o.problems, r.problems...)
	if i == 0 {
		o.digest = r.digest
	} else if r.digest != o.digest {
		o.digestMismatch = true
		o.problems = append(o.problems, fmt.Sprintf("round %d digest %s differs from round 0's %s", i, r.digest, o.digest))
	}
}

// phase is a sequence of timed rounds: each round's wall time in seconds
// and the heap bytes it allocated.
type phase struct {
	walls, allocs []float64
}

// run calls one(i), which returns round i's wall time, for i = 0, 1, …
// until at least minRounds rounds have run and another round of median
// length would overrun the budget. The heap is collected before each
// round.
func (p *phase) run(budget time.Duration, one func(i int) (time.Duration, error)) error {
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC()
		a0 := heapAllocBytes()
		d, err := one(i)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		p.allocs = append(p.allocs, float64(heapAllocBytes()-a0))
		p.walls = append(p.walls, d.Seconds())
		next := time.Duration(median(p.walls) * float64(time.Second))
		if i+1 >= minRounds && time.Since(start)+next > budget {
			return nil
		}
	}
}

// tracedPhase repeats the set-up and the rounds through the traced
// replay, checks that the replay simulates exactly what the untraced
// rounds did, and replaces the metrics with the per-layer ledger.
func tracedPhase(ctx context.Context, w workload, cfg runConfig, budget time.Duration, out *outcome) error {
	untracedMean := mean(out.roundWall)
	setupTr := newTracer("setup")
	b, err := w.setup(cfg, setupTr)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	tr := newTracer("round")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var traced phase
	err = traced.run(budget, func(i int) (time.Duration, error) {
		tr.round = i
		// The round's wall time is taken apart from the tracer, so the
		// ledger below is checked against a clock of its own.
		t0 := time.Now()
		root := tr.begin("core.self")
		r, err := b.replay(ctx, tr)
		tr.end(root)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if r.digest != out.digest {
			out.problems = append(out.problems, fmt.Sprintf(
				"traced round %d digest %s differs from the untraced %s", i, r.digest, out.digest))
			out.digestMismatch = true
		}
		out.attempted += r.ops
		out.failed += r.failed
		out.problems = append(out.problems, r.problems...)
		return d, nil
	})
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	walls := traced.walls
	n := float64(len(walls))

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for name, d := range tr.selfTimes() {
		m[name+"_s"] = d.Seconds() / n
	}
	for name, v := range tr.counts {
		m[name] = v / n
	}
	setupSelf := setupTr.selfTimes()
	m["topology.build_s"] = setupSelf["topology.build"].Seconds()
	m["routing.build_s"] = setupSelf["routing.build"].Seconds()
	m["traffic.soteriou_s"] = setupSelf["traffic.soteriou"].Seconds()
	m["routing.builds"] = setupTr.counts["routing.builds"]

	runS := m["noc.run_s"] + m["noc.closedloop_run_s"]
	if hops := m["noc.flit_hops"]; hops > 0 {
		m["noc.ns_per_flit_hop"] = runS * 1e9 / hops
		// BenchmarkSimulatorThroughput times construction, packetization,
		// injection and the run per flit-hop; so does this figure.
		kernel := m["noc.new_s"] + m["trace.packetize_s"] + m["noc.inject_s"] + runS
		m["noc.flit_hops_per_s"] = hops / kernel
	}
	for _, band := range []string{"low", "high"} {
		if hops := tr.counts["noc.flit_hops."+band]; hops > 0 {
			m["noc.ns_per_flit_hop_"+band] = tr.counts["noc.run_ns."+band] / hops
		}
		delete(m, "noc.flit_hops."+band)
		delete(m, "noc.run_ns."+band)
	}
	for name, v := range b.layerMetrics() {
		m[name] = v
	}
	m["bench.traced_wall_s"] = mean(walls)
	m["bench.untraced_wall_s"] = untracedMean
	m["bench.trace_overhead_frac"] = mean(walls)/untracedMean - 1
	m["go.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / n
	m["go.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9 / n
	m["proc.peak_rss_mb"] = peakRSSMB()

	// The ledger must add up: the self times, core.self_s included, sum to
	// the wall time of the traced rounds. Self times always sum to the time
	// their root spans cover; this checks that the spans cover the rounds,
	// up to the few clock reads taken outside the root span.
	var sum float64
	for _, d := range perLayer {
		if d.ledger {
			sum += m[d.name]
		}
	}
	if tw := m["bench.traced_wall_s"]; math.Abs(sum-tw) > 1e-3*tw {
		out.problems = append(out.problems, fmt.Sprintf("layer self times sum to %v s, traced wall is %v s", sum, tw))
	}
	for name := range m {
		if !isPerLayer(name) {
			return fmt.Errorf("per-layer metric %s is not declared", name)
		}
	}
	out.metrics = m
	out.spans = []*tracer{setupTr, tr}
	return nil
}

// latencies collects per-operation latency samples.
type latencies struct {
	samples []time.Duration
}

func (l *latencies) add(d time.Duration) { l.samples = append(l.samples, d) }

// progress returns a runner.Config.Progress callback that records the
// time between successive job completions. With one worker, jobs run
// serially, so that is each job's latency.
func (l *latencies) progress() func(done, total int) {
	last := time.Now()
	return func(int, int) {
		now := time.Now()
		l.add(now.Sub(last))
		last = now
	}
}

// opMedians returns, in milliseconds, each operation's median latency over
// the rounds. Operation i of every round is the same job, point, graph or
// query: jobs complete in order in a serial pool, and a serve round replays
// a fixed stream. A host stall that slows one round thus moves no
// operation's median, where it would move that round's quantiles.
func opMedians(rounds [][]float64) ([]float64, error) {
	if len(rounds) == 0 {
		return nil, nil
	}
	ops := len(rounds[0])
	meds := make([]float64, ops)
	v := make([]float64, len(rounds))
	for i := range ops {
		for r, lat := range rounds {
			if len(lat) != ops {
				return nil, fmt.Errorf("round %d has %d latency samples, round 0 has %d", r, len(lat), ops)
			}
			v[r] = lat[i]
		}
		meds[i] = median(v)
	}
	return meds, nil
}

// quantile returns the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func quantileDur(samples []time.Duration, q float64) time.Duration {
	v := make([]float64, len(samples))
	for i, d := range samples {
		v[i] = float64(d)
	}
	return time.Duration(quantile(v, q))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

var heapAllocsSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative count of bytes allocated on the heap.
func heapAllocBytes() uint64 {
	metrics.Read(heapAllocsSample)
	return heapAllocsSample[0].Value.Uint64()
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
