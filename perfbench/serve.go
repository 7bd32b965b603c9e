package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/serve"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// The serve workload drives an in-process serve.Engine with serveClients
// closed-loop clients replaying a Zipf stream of serveQueries queries over
// a universe of about a thousand. Each round starts a fresh engine, so its
// cache starts cold; about three fifths of the queries miss it, which puts
// the median latency inside the evaluation mode. The engine runs the
// default configuration with one evaluation worker and a serveCycles-cycle
// Bernoulli horizon (the default is 5000), so every round gathers a
// thousand latency samples.
//
// The universe is a list of strata whose members evaluate the same cell
// and differ only in the energy figure wanted (clear or energy). The
// stream of universe positions is fixed; the seed permutes the members
// within each stratum. Every seed thus sends different queries with the
// same hit pattern and the same evaluation work.
const (
	serveQueries    = 1000
	serveClients    = 2
	serveZipf       = 0.3
	serveCycles     = 1000
	serveStreamSeed = 0x5e7e
)

var serveWorkload = workload{
	name: "serve",
	params: map[string]any{
		"queries_per_round": serveQueries, "clients": serveClients, "zipf_exponent": serveZipf,
		"universe": len(flatten(serveStrata())), "cycles": serveCycles, "engine_workers": workers,
	},
	setup: setupServe,
}

// serveQuery is one member of the query universe: the request a client
// sends and the evaluation cell the engine makes of it.
type serveQuery struct {
	req  serve.Request
	cell core.EvalCell
}

// serveStrata enumerates the universe: 4×4 grids over mesh (plain and with
// HyPPI or photonic express), torus and flattened butterfly with every
// pattern at eight loads; 8×8 meshes at light loads; and the NPB kernels on
// 4×4 grids, each asked for latency and for one or both energy figures. A
// stratum holds the queries of one cell: the latency query alone, or the
// energy-figure queries, which price the same simulation.
func serveStrata() [][]serveQuery {
	type geo struct {
		kind topology.Kind
		w, h int
		hops int
	}
	small := []geo{{topology.Mesh, 4, 4, 0}, {topology.Mesh, 4, 4, 2}, {topology.Torus, 4, 4, 0}, {topology.FBFly, 4, 4, 0}}
	large := []geo{{topology.Mesh, 8, 8, 0}, {topology.Mesh, 8, 8, 3}}
	allWants := []string{serve.WantLatency, serve.WantCLEAR, serve.WantEnergy}
	twoWants := []string{serve.WantLatency, serve.WantEnergy}
	var strata [][]serveQuery
	add := func(g geo, pattern, kernel string, load float64, wants []string) {
		expresses := []tech.Technology{tech.Electronic}
		if g.hops > 0 {
			expresses = []tech.Technology{tech.HyPPI, tech.Photonic}
		}
		for _, express := range expresses {
			var latency, priced []serveQuery
			for _, want := range wants {
				q := newServeQuery(g.kind, g.w, g.h, express, g.hops, pattern, kernel, load, want)
				if q.cell.Energy {
					priced = append(priced, q)
				} else {
					latency = append(latency, q)
				}
			}
			strata = append(strata, latency, priced)
		}
	}
	for _, g := range small {
		for _, pattern := range traffic.Names() {
			for _, load := range []float64{0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2, 0.25} {
				add(g, pattern, "", load, allWants)
			}
		}
	}
	for _, g := range large {
		for _, pattern := range []string{"uniform", "tornado", "transpose", "neighbor"} {
			for _, load := range []float64{0.01, 0.02, 0.03} {
				add(g, pattern, "", load, twoWants)
			}
		}
	}
	for _, g := range small {
		for _, k := range []string{"LU", "FT", "CG", "MG", "EP", "IS"} {
			add(g, "", k, 0, twoWants)
		}
	}
	return strata
}

// newServeQuery builds a request and the cell serve.Engine evaluates for it.
func newServeQuery(kind topology.Kind, w, h int, express tech.Technology, hops int,
	pattern, kernel string, load float64, want string) serveQuery {
	req := serve.Request{Topology: string(kind), Width: w, Height: h, Hops: hops,
		Pattern: pattern, Kernel: kernel, Load: load, Want: want}
	point := core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic}
	if hops > 0 {
		req.Express = express.String()
		point.Express, point.Hops = express, hops
	}
	cell := core.EvalCell{Kind: kind, Width: w, Height: h, Point: point, Energy: want != serve.WantLatency}
	if pattern != "" {
		cell.Pattern, _ = traffic.Lookup(pattern)
		cell.Rate = load
	} else {
		k, _ := npb.ParseKernel(kernel)
		cfg := npb.DefaultConfig(k)
		cfg.GridW, cfg.GridH = w, h
		cfg.Scale = serve.DefaultTraceScale
		cell.Trace = &cfg
	}
	return serveQuery{req: req, cell: cell}
}

func flatten(strata [][]serveQuery) []serveQuery {
	var u []serveQuery
	for _, s := range strata {
		u = append(u, s...)
	}
	return u
}

type serveBench struct {
	ecfg     serve.Config
	universe []serveQuery
	// stream holds universe indices in query order; miss[i] marks the
	// first occurrence of its query, and distinct lists the queries in
	// first-occurrence order.
	stream   []int
	miss     []bool
	distinct []int

	// Accumulated over traced rounds.
	hitLat, missLat []time.Duration
	engineStats     []serve.Stats
}

func setupServe(cfg runConfig, tr *tracer) (bench, error) {
	b := &serveBench{ecfg: serve.DefaultEngineConfig()}
	b.ecfg.Options.Cache = core.NewNetworkCache()
	b.ecfg.Sweep.Workload.Cycles = serveCycles
	b.ecfg.Workers = workers
	seeded := rand.New(rand.NewPCG(uint64(cfg.seed), serveStreamSeed))
	for _, stratum := range serveStrata() {
		for _, j := range seeded.Perm(len(stratum)) {
			b.universe = append(b.universe, stratum[j])
		}
	}
	type env struct {
		kind  topology.Kind
		w, h  int
		point core.DesignPoint
	}
	warmed := map[env]bool{}
	for _, q := range b.universe {
		e := env{q.cell.Kind, q.cell.Width, q.cell.Height, q.cell.Point}
		if warmed[e] {
			continue
		}
		warmed[e] = true
		if err := warmNetworks(cellOptions(b.ecfg.Options, q.cell), []core.DesignPoint{q.cell.Point}, tr); err != nil {
			return nil, err
		}
	}

	// A Zipf law over a fixed ranking of the universe positions.
	fixed := rand.New(rand.NewPCG(serveStreamSeed, serveStreamSeed))
	rank := fixed.Perm(len(b.universe))
	cum := make([]float64, len(b.universe))
	var total float64
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), serveZipf)
		cum[k] = total
	}
	seen := map[int]bool{}
	for range serveQueries {
		k := sort.SearchFloat64s(cum, fixed.Float64()*total)
		q := rank[min(k, len(rank)-1)]
		b.stream = append(b.stream, q)
		b.miss = append(b.miss, !seen[q])
		if !seen[q] {
			seen[q] = true
			b.distinct = append(b.distinct, q)
		}
	}
	return b, nil
}

// cellOptions applies a cell's kind and geometry, as core.EvalCells does.
func cellOptions(o core.Options, c core.EvalCell) core.Options {
	o.Topology.Kind = c.Kind
	o.Topology.Width, o.Topology.Height = c.Width, c.Height
	return o
}

// engineRound is what the clients saw in one round.
type engineRound struct {
	lat   []time.Duration
	resps []serve.Response
	stats serve.Stats
}

// serveRound replays the stream through a fresh engine from serveClients
// closed-loop clients.
func (b *serveBench) serveRound(ctx context.Context) engineRound {
	e := serve.NewEngine(b.ecfg)
	r := engineRound{lat: make([]time.Duration, len(b.stream)), resps: make([]serve.Response, len(b.stream))}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(b.stream) {
					return
				}
				t0 := time.Now()
				r.resps[i] = e.Do(ctx, b.universe[b.stream[i]].req)
				r.lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	r.stats = e.Stats()
	e.Close()
	return r
}

func (b *serveBench) run(ctx context.Context, lat *latencies) (round, error) {
	r := b.serveRound(ctx)
	for _, d := range r.lat {
		lat.add(d)
	}
	return b.check(r), nil
}

// check counts refused or failed queries, verifies that every occurrence
// of a query got the same answer, and digests the response bytes of each
// distinct query.
func (b *serveBench) check(r engineRound) round {
	out := round{ops: len(b.stream)}
	codes := map[string]int{}
	answer := map[int][]byte{}
	for i, resp := range r.resps {
		if !resp.OK {
			out.failed++
			codes[resp.Error.Code]++
			continue
		}
		line := resp.Encode()
		q := b.stream[i]
		if prev, ok := answer[q]; !ok {
			answer[q] = line
		} else if string(prev) != string(line) {
			out.failed++
			codes["inconsistent"]++
		}
	}
	if len(codes) > 0 {
		out.problems = append(out.problems, fmt.Sprintf("serve: failed queries by code: %v", codes))
	}
	d := newDigest()
	for _, q := range b.distinct {
		d.add(q, string(answer[q]))
	}
	out.digest = d.sum()
	return out
}

// replay runs the engine round inside the span serve.self, whose self time
// is the whole engine round: the tracer cannot see into the engine. It then
// evaluates every distinct query once more by making core.EvalCells' calls
// for a batch of one, which splits the evaluation work the engine did
// across layers. Each replayed answer must equal the engine's.
func (b *serveBench) replay(ctx context.Context, tr *tracer) (round, error) {
	var r engineRound
	tr.span("serve.self", func() error {
		r = b.serveRound(ctx)
		return nil
	})
	out := b.check(r)
	for i, d := range r.lat {
		if b.miss[i] {
			b.missLat = append(b.missLat, d)
		} else {
			b.hitLat = append(b.hitLat, d)
		}
	}
	b.engineStats = append(b.engineStats, r.stats)

	first := map[int]serve.Response{}
	for i := len(b.stream) - 1; i >= 0; i-- {
		first[b.stream[i]] = r.resps[i]
	}
	for _, q := range b.distinct {
		tr.op = q
		got, err := b.replayCell(tr, b.universe[q])
		if err != nil {
			return round{}, fmt.Errorf("query %d: %w", q, err)
		}
		if resp := first[q]; resp.OK && answerLine(resp.Result) != answerLine(&got) {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("serve: query %d replays as %s, engine answered %s",
				q, answerLine(&got), answerLine(resp.Result)))
		}
	}
	return out, nil
}

// replayCell is core.EvalCells on a batch of one cell: resolve the
// network, build the energy model when the cell prices energy, generate
// the packets, simulate and price.
func (b *serveBench) replayCell(tr *tracer, q serveQuery) (serve.Result, error) {
	c, o, sc := q.cell, b.ecfg.Options, b.ecfg.Sweep
	net, tab, err := cellOptions(o, c).NetworkAndTable(c.Point)
	if err != nil {
		return serve.Result{}, err
	}
	var model *energy.Model
	if c.Energy {
		if _, err := tr.span("energy.model", func() (err error) {
			model, err = energy.NewModel(net, o.DSENT)
			return err
		}); err != nil {
			return serve.Result{}, err
		}
	}
	var pkts []noc.Packet
	if c.Pattern != nil {
		if _, err := tr.span("traffic.gen", func() error {
			base, err := c.Pattern.Generate(net, 1)
			if err != nil {
				return err
			}
			if err := base.Validate(); err != nil {
				return err
			}
			pkts, err = sc.Workload.Generate(net, base.ScaledToMaxRate(c.Rate))
			return err
		}); err != nil {
			return serve.Result{}, err
		}
		tr.count("traffic.packets", float64(len(pkts)))
	} else {
		var events []trace.Event
		if _, err := tr.span("npb.gen", func() (err error) {
			events, err = npb.Generate(*c.Trace)
			return err
		}); err != nil {
			return serve.Result{}, err
		}
		if _, err := tr.span("trace.packetize", func() (err error) {
			pkts, err = trace.Packetize(events, net.NumNodes(), trace.DefaultPacketize())
			return err
		}); err != nil {
			return serve.Result{}, err
		}
		tr.count("trace.packets", float64(len(pkts)))
	}
	st, _, err := tracedRun(tr, noc.NewSimPool(), net, tab, sc.NoC,
		func(s *noc.Sim) error { return s.InjectAll(pkts) }, "noc.run")
	res := serve.Result{AvgLatencyClks: st.AvgPacketLatencyClks, P99LatencyClks: st.P99PacketLatencyClks,
		Cycles: st.Cycles, Packets: st.PacketsEjected}
	if err != nil {
		if !errors.Is(err, noc.ErrSaturated) {
			return serve.Result{}, err
		}
		res.Saturated = true
		return res, nil
	}
	if !c.Energy {
		return res, nil
	}
	var run energy.RunEnergy
	var clear energy.CLEAR
	if _, err := tr.span("energy.price", func() (err error) {
		if run, err = model.Price(st); err != nil {
			return err
		}
		clear, err = model.SimulatedCLEAR(st, c.Rate)
		return err
	}); err != nil {
		return serve.Result{}, err
	}
	// The engine reports the fields its want asks for.
	if q.req.Want == serve.WantEnergy {
		res.FJPerBit, res.DynamicJ, res.StaticJ, res.TotalJ, res.AvgPowerW =
			run.FJPerBit, run.DynamicJ, run.StaticJ, run.TotalJ, run.AvgPowerW
	}
	res.CLEAR, res.R, res.AvgUtilization = clear.Value, clear.R, clear.AvgUtilization
	return res, nil
}

// answerLine renders the simulated fields of an answer exactly.
func answerLine(r *serve.Result) string {
	return fmt.Sprint(r.Saturated, r.AvgLatencyClks, r.P99LatencyClks, r.Cycles, r.Packets, r.FJPerBit,
		r.DynamicJ, r.StaticJ, r.TotalJ, r.AvgPowerW, r.CLEAR, r.R, r.AvgUtilization)
}

// layerMetrics reports the serving layer's counters and the client-side
// latency of hits and misses, a miss being a query's first occurrence in
// the stream.
func (b *serveBench) layerMetrics() map[string]float64 {
	var hits, misses, evals, batches, rejected, evictions float64
	for _, s := range b.engineStats {
		hits += float64(s.Hits)
		misses += float64(s.Misses)
		evals += float64(s.Evaluations)
		batches += float64(s.Batches)
		rejected += float64(s.Rejected)
		evictions += float64(s.Evictions)
	}
	n := float64(len(b.engineStats))
	m := map[string]float64{
		"serve.evaluations": evals / n,
		"serve.batches":     batches / n,
		"serve.rejected":    rejected / n,
		"serve.evictions":   evictions / n,
		"serve.hit_p50_us":  quantileDur(b.hitLat, 0.5).Seconds() * 1e6,
		"serve.miss_p50_ms": quantileDur(b.missLat, 0.5).Seconds() * 1e3,
		"serve.miss_p99_ms": quantileDur(b.missLat, 0.99).Seconds() * 1e3,
		"serve.hit_ratio":   0,
		"serve.mean_batch":  0,
	}
	if hits+misses > 0 {
		m["serve.hit_ratio"] = hits / (hits + misses)
	}
	if batches > 0 {
		m["serve.mean_batch"] = evals / batches
	}
	return m
}
