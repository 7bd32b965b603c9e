package serve

import (
	"container/list"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/npb"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Serving defaults.
const (
	// DefaultWidth and DefaultHeight are the grid a query gets when it
	// names none: the repository's cycle-accurate sweep scale.
	DefaultWidth, DefaultHeight = 8, 8
	// DefaultMaxNodes bounds requested grids (64×64).
	DefaultMaxNodes = 4096
	// DefaultQueueDepth bounds the pending-evaluation queue; beyond it
	// the engine answers queue_full instead of growing without bound.
	DefaultQueueDepth = 256
	// DefaultCacheEntries bounds the result cache: at the cap the
	// least-recently-used completed entry is evicted to admit a new
	// query, so a long-lived server's memory stays proportional to its
	// working set, not its history.
	DefaultCacheEntries = 1024
	// DefaultTraceScale is the NPB volume scale for kernel queries (the
	// CLIs' default).
	DefaultTraceScale = 1.0 / 16
)

// Config parameterizes an Engine.
type Config struct {
	// Options is the shared experiment configuration; a query's kind and
	// geometry override its topology per cell. The zero value selects
	// core.DefaultOptions.
	Options core.Options
	// Sweep shapes every evaluation (Bernoulli workload, simulator
	// configuration); Rates is unused — each query carries its own load.
	// The zero value selects core.DefaultEnergySweep.
	Sweep core.EnergySweepConfig
	// Workers is the number of evaluator goroutines, each evaluating one
	// queued query at a time (0 = GOMAXPROCS).
	Workers int
	// QueueDepth, MaxNodes, CacheEntries and TraceScale default to the
	// package constants when zero.
	QueueDepth int
	MaxNodes   int
	// CacheEntries caps the result cache; least-recently-used completed
	// entries are evicted at the cap (in-flight evaluations are pinned —
	// waiters hold them — so a cache full of in-flight work rejects new
	// queries with queue_full instead).
	CacheEntries int
	TraceScale   float64
}

// DefaultEngineConfig returns the serving defaults.
func DefaultEngineConfig() Config {
	return Config{
		Options:      core.DefaultOptions(),
		Sweep:        core.DefaultEnergySweep(),
		QueueDepth:   DefaultQueueDepth,
		MaxNodes:     DefaultMaxNodes,
		CacheEntries: DefaultCacheEntries,
		TraceScale:   DefaultTraceScale,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	zero := core.Options{}
	if c.Options == zero {
		c.Options = core.DefaultOptions()
	}
	if c.Sweep.Workload.SizeFlits == 0 && c.Sweep.Workload.Cycles == 0 {
		c.Sweep = core.DefaultEnergySweep()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = DefaultMaxNodes
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.TraceScale <= 0 {
		c.TraceScale = DefaultTraceScale
	}
	return c
}

// Stats is a snapshot of the engine's serving counters.
type Stats struct {
	// Hits counts queries answered from the cache or joined onto an
	// identical in-flight evaluation (single-flight dedup); Misses
	// counts queries that enqueued a fresh evaluation.
	Hits, Misses uint64
	// Evaluations counts cells actually evaluated (one per distinct
	// canonical query, however many clients asked for it).
	Evaluations uint64
	// Simulations counts kernel runs. Evaluations that time alike share
	// one (see Engine), so it never exceeds Evaluations.
	Simulations uint64
	// Batches equals Evaluations. It is kept because perfbench's serve
	// workload reads it.
	Batches uint64
	// Rejected counts queue-full backpressure rejections.
	Rejected uint64
	// Evictions counts completed entries dropped by the LRU bound
	// (Config.CacheEntries) to admit new queries.
	Evictions uint64
	// CacheEntries is the current number of cached canonical queries,
	// never above Config.CacheEntries.
	CacheEntries int
	// QueueDepth is the number of evaluations queued for a free
	// evaluator at snapshot time (a gauge, unlike the counters above).
	QueueDepth int
	// UptimeSeconds is the time since the engine started.
	UptimeSeconds float64
}

// HitRate is Hits / (Hits + Misses), 0 before any query.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entry is one cached canonical query. done closes when the evaluation
// lands; res/err are immutable afterwards. Waiters joining before
// completion are the single-flight dedup path; joiners after completion
// are plain cache hits — both read the same bytes. elem is the entry's
// recency-list position (front = most recent) and run the simulation it
// was priced from (nil when it failed before simulating), both owned by
// Engine.mu. Eviction only unlinks an entry from the cache: waiters
// already holding it still complete normally.
type entry struct {
	done chan struct{}
	res  *Result
	err  *Error
	elem *list.Element
	run  *run
}

// job pairs a cache entry with the canonical request that fills it.
type job struct {
	canon Request
	ent   *entry
}

// pricing is a job resolved for its timing step, waiting for a run.
type pricing struct {
	j *job
	t core.Timing
}

// run is one simulation that the cached queries of one workload share
// when they time alike (core.Timing.Alike). The first evaluator to need
// it simulates; an evaluator whose query joins it in flight files a
// pricing and goes back to the queue, and the simulating evaluator prices
// every filed query when the run lands. refs counts the cache entries
// naming the run: the last one evicted drops it from the index. All but
// res are owned by Engine.mu; res is immutable once landed is set.
type run struct {
	workload string
	timing   core.Timing
	res      core.Run
	landed   bool
	waiting  []pricing
	refs     int
}

// price answers a job from a landed run and completes its entry.
func (p pricing) price(res core.Run) {
	if r, err := p.t.Price(res); err != nil {
		p.j.ent.err = errf(CodeEvalFailed, "", "%v", err)
	} else {
		p.j.ent.res = buildResult(p.j.canon, r)
	}
	close(p.j.ent.done)
}

// Engine is the query-serving core: a keyed result cache with
// single-flight deduplication in front of a pool of Config.Workers
// evaluators, each answering one queued query at a time. Queries that
// differ only in the figure wanted or in technologies the kernel cannot
// tell apart share one simulation and are priced apart. Responses are
// deterministic: a query's result is a pure function of its canonical
// form, so concurrent clients receive answers bit-identical to serial
// evaluation, however requests interleave or dedup (the CONCURRENCY
// contract in CHANGES.md, extended to the serving layer).
type Engine struct {
	cfg Config

	mu     sync.Mutex
	closed bool
	cache  map[string]*entry
	// lru orders cache keys by recency (front = most recent); at
	// Config.CacheEntries the least-recently-used completed entry is
	// evicted to admit a new query.
	lru *list.List
	// runs indexes the simulations the cached entries name by workload
	// (Request.workloadKey), in formation order.
	runs map[string][]*run

	// draining marks the graceful-shutdown window: transports refuse new
	// queries (HTTP 503 / code "draining") while queries already accepted
	// finish and deliver their answers.
	draining atomic.Bool

	queue        chan *job
	evaluatorsWG sync.WaitGroup

	hits, misses, evals, sims, rejected, evictions atomic.Uint64

	// start anchors the uptime gauge; the latency fields feed the
	// /metrics service-latency histogram (latMu keeps hist+sum+overflow
	// mutually consistent — one short critical section per query).
	start   time.Time
	latMu   sync.Mutex
	latHist *stats.Histogram
	latSum  float64
	latOver int64

	// simHook, when set before the first query, runs just before every
	// simulation (test instrumentation: the single-flight and sharing
	// tests gate simulation on it).
	simHook func()
}

// Service-latency histogram shape: fixed-width buckets over [0,
// latHistMaxSeconds); slower queries are counted in the +Inf overflow
// bucket rather than clamped into the last bin.
const (
	latHistMaxSeconds = 5.0
	latHistBins       = 50
)

// NewEngine starts an engine; callers own Close.
func NewEngine(cfg Config) *Engine {
	hist, err := stats.NewHistogram(0, latHistMaxSeconds, latHistBins)
	if err != nil {
		panic(err) // constant shape, cannot fail
	}
	e := &Engine{
		cfg:     cfg.withDefaults(),
		cache:   make(map[string]*entry),
		lru:     list.New(),
		runs:    make(map[string][]*run),
		start:   time.Now(),
		latHist: hist,
	}
	e.queue = make(chan *job, e.cfg.QueueDepth)
	e.evaluatorsWG.Add(e.cfg.Workers)
	for range e.cfg.Workers {
		go e.evaluate()
	}
	return e
}

// Close stops the evaluators after draining queued work. Queries already
// waiting complete; new queries are rejected.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
	e.evaluatorsWG.Wait()
}

// StartDraining flips the engine into its graceful-shutdown window: the
// transports reject queries arriving afterwards with code "draining"
// (HTTP 503) while accepted queries run to completion. Idempotent; Close
// still owns stopping the evaluators.
func (e *Engine) StartDraining() { e.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (e *Engine) Draining() bool { return e.draining.Load() }

// Stats snapshots the serving counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	entries := len(e.cache)
	e.mu.Unlock()
	return Stats{
		Hits:          e.hits.Load(),
		Misses:        e.misses.Load(),
		Evaluations:   e.evals.Load(),
		Simulations:   e.sims.Load(),
		Batches:       e.evals.Load(),
		Rejected:      e.rejected.Load(),
		Evictions:     e.evictions.Load(),
		CacheEntries:  entries,
		QueueDepth:    len(e.queue),
		UptimeSeconds: time.Since(e.start).Seconds(),
	}
}

// observeLatency records one query's wall-clock service time. Samples at
// or beyond the histogram range are counted as overflow (the +Inf bucket)
// so the exported bucket boundaries stay truthful.
func (e *Engine) observeLatency(d time.Duration) {
	sec := d.Seconds()
	e.latMu.Lock()
	e.latSum += sec
	if sec >= latHistMaxSeconds {
		e.latOver++
	} else {
		e.latHist.Add(sec)
	}
	e.latMu.Unlock()
}

// Do answers one query: validate and canonicalize, join the cached or
// in-flight evaluation when one exists, otherwise enqueue a fresh cell
// for the evaluators (rejecting with queue_full when the pending queue is
// at QueueDepth — graceful backpressure instead of unbounded goroutines).
// Do blocks until the answer is ready or ctx is done; a canceled wait
// returns a canceled error while the evaluation itself completes and
// stays cached.
func (e *Engine) Do(ctx context.Context, req Request) Response {
	began := time.Now()
	defer func() { e.observeLatency(time.Since(began)) }()
	canon, errObj := req.Canonical(e.cfg.MaxNodes)
	if errObj != nil {
		return errResponse(req.ID, errObj)
	}
	key := canon.key()

	e.mu.Lock()
	ent, ok := e.cache[key]
	if ok {
		e.lru.MoveToFront(ent.elem)
		e.mu.Unlock()
		e.hits.Add(1)
	} else {
		if e.closed {
			e.mu.Unlock()
			return errResponse(req.ID, errf(CodeQueueFull, "", "server shutting down"))
		}
		if len(e.cache) >= e.cfg.CacheEntries && !e.evictLocked() {
			// Cap reached with every entry still evaluating: reject
			// rather than grow or drop work waiters depend on.
			e.mu.Unlock()
			e.rejected.Add(1)
			return errResponse(req.ID, errf(CodeQueueFull, "",
				"result cache full (%d entries, all in flight); retry later", e.cfg.CacheEntries))
		}
		ent = &entry{done: make(chan struct{})}
		select {
		case e.queue <- &job{canon: canon, ent: ent}:
			ent.elem = e.lru.PushFront(key)
			e.cache[key] = ent
			e.mu.Unlock()
			e.misses.Add(1)
		default:
			e.mu.Unlock()
			e.rejected.Add(1)
			return errResponse(req.ID, errf(CodeQueueFull, "",
				"evaluation queue full (%d pending); retry later", e.cfg.QueueDepth))
		}
	}

	select {
	case <-ent.done:
	case <-ctx.Done():
		return errResponse(req.ID, errf(CodeCanceled, "", "%v", ctx.Err()))
	}
	if ent.err != nil {
		return errResponse(req.ID, ent.err)
	}
	res := *ent.res
	return Response{ID: req.ID, OK: true, Result: &res}
}

// evictLocked drops the least-recently-used completed entry, reporting
// whether one was found. In-flight entries are pinned — their waiters
// joined through the cache and an evaluator still owns their jobs — so
// the scan walks from the cold end skipping anything not yet done.
// Callers hold e.mu.
func (e *Engine) evictLocked() bool {
	for el := e.lru.Back(); el != nil; el = el.Prev() {
		key := el.Value.(string)
		select {
		case <-e.cache[key].done:
			e.releaseLocked(e.cache[key].run)
			delete(e.cache, key)
			e.lru.Remove(el)
			e.evictions.Add(1)
			return true
		default: // still evaluating: pinned
		}
	}
	return false
}

// releaseLocked drops an evicted entry's claim on its run, and the run
// from the index with the last claim. Callers hold e.mu.
func (e *Engine) releaseLocked(r *run) {
	if r == nil {
		return
	}
	if r.refs--; r.refs > 0 {
		return
	}
	runs := e.runs[r.workload]
	if i := slices.Index(runs, r); i >= 0 {
		runs = slices.Delete(runs, i, i+1)
	}
	if len(runs) == 0 {
		delete(e.runs, r.workload)
	} else {
		e.runs[r.workload] = runs
	}
}

// evaluate is one evaluator: it takes queued jobs one at a time and
// completes each entry as soon as its own cell is priced, so a cheap
// query never waits for a slow one another evaluator holds.
func (e *Engine) evaluate() {
	defer e.evaluatorsWG.Done()
	for j := range e.queue {
		e.evals.Add(1)
		e.answer(j)
	}
}

// answer resolves a job's timing step and prices it from the first run
// of its workload that times alike: at once when that run has landed,
// when it lands if it is in flight (without holding this evaluator), or
// after simulating a new run when there is none.
func (e *Engine) answer(j *job) {
	t, err := core.Resolve(e.cellFor(j.canon), e.cfg.Sweep, e.cfg.Options)
	if err != nil {
		j.ent.err = errf(CodeEvalFailed, "", "%v", err)
		close(j.ent.done)
		return
	}
	p := pricing{j: j, t: t}
	key := j.canon.workloadKey()
	e.mu.Lock()
	runs := e.runs[key]
	if i := slices.IndexFunc(runs, func(r *run) bool { return r.timing.Alike(t) }); i >= 0 {
		r := runs[i]
		r.refs++
		j.ent.run = r
		if !r.landed {
			r.waiting = append(r.waiting, p)
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		p.price(r.res)
		return
	}
	r := &run{workload: key, timing: t, refs: 1}
	e.runs[key] = append(runs, r)
	j.ent.run = r
	e.mu.Unlock()

	if e.simHook != nil {
		e.simHook()
	}
	e.sims.Add(1)
	res := t.Simulate()
	e.mu.Lock()
	r.res, r.landed = res, true
	waiting := r.waiting
	r.waiting = nil
	e.mu.Unlock()
	p.price(res)
	for _, w := range waiting {
		w.price(res)
	}
}

// cellFor maps a canonicalized request onto its evaluation cell. Every
// lookup below re-resolves a name Canonical already validated, so none
// can fail.
func (e *Engine) cellFor(canon Request) core.EvalCell {
	base, _ := tech.ParseTechnology(canon.Base)
	express, _ := tech.ParseTechnology(canon.Express)
	cell := core.EvalCell{
		Kind:   topology.Kind(canon.Topology),
		Width:  canon.Width,
		Height: canon.Height,
		Point:  core.DesignPoint{Base: base, Express: express, Hops: canon.Hops},
		Energy: canon.Want != WantLatency,
	}
	if canon.Pattern != "" {
		cell.Pattern, _ = traffic.Lookup(canon.Pattern)
		cell.Rate = canon.Load
	} else {
		k, _ := npb.ParseKernel(canon.Kernel)
		cfg := npb.DefaultConfig(k)
		cfg.GridW, cfg.GridH = canon.Width, canon.Height
		cfg.Scale = e.cfg.TraceScale
		cell.Trace = &cfg
	}
	return cell
}

// buildResult renders a cell's measurement as the response payload for
// the requested want.
func buildResult(canon Request, r core.EvalCellResult) *Result {
	base, _ := tech.ParseTechnology(canon.Base)
	express, _ := tech.ParseTechnology(canon.Express)
	label := core.DesignPoint{Base: base, Express: express, Hops: canon.Hops}.Label(topology.Kind(canon.Topology))
	res := &Result{
		Topology:       canon.Topology,
		Point:          label,
		Width:          canon.Width,
		Height:         canon.Height,
		Pattern:        canon.Pattern,
		Kernel:         canon.Kernel,
		Load:           canon.Load,
		Want:           canon.Want,
		Saturated:      r.Saturated,
		AvgLatencyClks: r.AvgLatencyClks,
		P99LatencyClks: r.P99LatencyClks,
		Cycles:         r.Cycles,
		Packets:        r.Packets,
	}
	if r.Saturated {
		return res
	}
	switch canon.Want {
	case WantEnergy:
		res.FJPerBit = r.Run.FJPerBit
		res.DynamicJ = r.Run.DynamicJ
		res.StaticJ = r.Run.StaticJ
		res.TotalJ = r.Run.TotalJ
		res.AvgPowerW = r.Run.AvgPowerW
		fallthrough
	case WantCLEAR:
		res.CLEAR = r.CLEAR.Value
		res.R = r.CLEAR.R
		res.AvgUtilization = r.CLEAR.AvgUtilization
	}
	return res
}
