// Package core is the front door of the HyPPI NoC reproduction: it wires
// the substrate packages (topology, routing, traffic, dsent, noc, npb,
// optical, energy, fault, taskgraph, telemetry) into the paper's
// experiments and their extensions, one call per family:
//
//	LinkSweep           — Fig. 3  (link-level CLEAR vs length)
//	Explore             — Fig. 5, Tables III & IV (hybrid design space)
//	ExploreKinds        — the same analytic evaluation across topology kinds
//	RunTraceExperiments — Fig. 6, Table V (cycle-accurate NPB traces, or
//	                      an already-parsed trace file)
//	AllOpticalRadar     — Fig. 8, Table VI (fully optical projections)
//	PatternSweep        — synthetic-pattern load-latency curves and knees
//	EnergySweep         — measured latency–energy ladders, Pareto fronts
//	FaultSweep          — availability and CLEAR degradation under faults
//	TaskGraphSweep      — closed-loop operator-graph makespans
//	TelemetrySweep      — sampled packet traces and windowed probes
//	Eval                — one serving cell (a single query)
//
// The cycle-accurate families share one engine (sweep.go): a fabric
// resolver and a single simulate step over a batch-wide simulator pool.
// Every experiment is deterministic given its configuration.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/analytic"
	"repro/internal/dsent"
	"repro/internal/link"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/optical"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/units"
)

// DesignPoint names one hybrid NoC of the Fig. 5 design space.
type DesignPoint struct {
	// Base is the mesh channel technology.
	Base tech.Technology
	// Express is the express channel technology (ignored for Hops == 0).
	Express tech.Technology
	// Hops is the express hop length: 0 (plain mesh), 3, 5 or 15.
	Hops int
}

// String implements fmt.Stringer.
func (p DesignPoint) String() string {
	if p.Hops == 0 {
		return fmt.Sprintf("%v mesh", p.Base)
	}
	return fmt.Sprintf("%v mesh + %v express@%d", p.Base, p.Express, p.Hops)
}

// Label renders the design point for tables on a topology kind. String
// names the mesh; when the kind already names another fabric, the label
// reduces to the technology axis.
func (p DesignPoint) Label(kind topology.Kind) string {
	if kind == "" || kind == topology.Mesh {
		return p.String()
	}
	if p.Hops == 0 {
		return p.Base.String()
	}
	// cmesh can carry express links; keep the axis without the "mesh"
	// word String would add.
	return fmt.Sprintf("%v + %v express@%d", p.Base, p.Express, p.Hops)
}

// DefaultDesignSpace enumerates the paper's Fig. 5 grid: base mesh in
// {Electronic, Photonic, HyPPI} × (plain + express in the same three
// technologies × hops {3, 5, 15}).
func DefaultDesignSpace() []DesignPoint {
	bases := []tech.Technology{tech.Electronic, tech.Photonic, tech.HyPPI}
	var pts []DesignPoint
	for _, b := range bases {
		pts = append(pts, DesignPoint{Base: b, Express: b, Hops: 0})
		for _, e := range bases {
			for _, h := range []int{3, 5, 15} {
				pts = append(pts, DesignPoint{Base: b, Express: e, Hops: h})
			}
		}
	}
	return pts
}

// Options carries the shared experiment configuration (Table II defaults).
type Options struct {
	// Topology is the base network geometry; the design point overrides
	// its technologies and hop length.
	Topology topology.Config
	// DSENT is the component cost configuration.
	DSENT dsent.Config
	// RouterPipelineClks is the router pipeline depth.
	RouterPipelineClks int
	// Traffic is the synthetic statistical traffic configuration.
	Traffic traffic.SoteriouConfig
	// Policy selects the routing table construction.
	Policy routing.Policy
	// Cache scopes the network/table/traffic memoization for this
	// Options value; nil selects the process-wide default cache. Set a
	// private NewNetworkCache to bound cache lifetime in long-lived
	// processes sweeping many distinct geometries.
	Cache *NetworkCache
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Topology:           topology.DefaultConfig(),
		DSENT:              dsent.DefaultConfig(),
		RouterPipelineClks: 3,
		Traffic:            traffic.DefaultSoteriou(),
		Policy:             routing.MonotoneExpress,
	}
}

// ExplorationResult pairs a design point with its analytic evaluation.
type ExplorationResult struct {
	Point DesignPoint
	analytic.Result
}

// Explore runs the Section III-B evaluation across design points,
// producing the Fig. 5 dataset (CLEAR, latency, power, area per point)
// plus Table III (C, R) and Table IV (static power) values.
//
// Explore is a thin wrapper over ExploreContext with a default-sized worker
// pool; results are collected in point order and are bit-identical to
// evaluating each point alone with analytic.Evaluate.
func Explore(points []DesignPoint, o Options) ([]ExplorationResult, error) {
	return ExploreContext(context.Background(), points, o, runner.Config{})
}

// ExploreContext is Explore on an explicit context and worker-pool
// configuration. The batch walks each route structure once: design points
// whose fabrics share the traffic matrix, the wiring and the next hops
// (the technology variants of one hop length, say) form one group, and
// one analytic.EvaluateShared walk accumulates the group's loads, with one
// latency sum per distinct link-latency vector. Every sum keeps the order
// of a walk over one point, so each result is bit-identical to
// analytic.Evaluate on that point alone. Groups run concurrently, the
// first failure cancels the rest, and cfg.Progress observes each point's
// completion. Results are returned in point order whatever the pool size.
func ExploreContext(ctx context.Context, points []DesignPoint, o Options, cfg runner.Config) ([]ExplorationResult, error) {
	res, err := exploreBatch(ctx, len(points),
		func(i int) (Options, DesignPoint) { return o, points[i] },
		func(i int) string { return points[i].String() }, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]ExplorationResult, len(points))
	for i, r := range res {
		out[i] = ExplorationResult{Point: points[i], Result: r.res}
	}
	return out, nil
}

// explored is one design point of an analytic batch: its resolved fabric,
// its (cached) traffic matrix and, once its group is walked, its result.
type explored struct {
	fabric
	tm  *traffic.Matrix
	res analytic.Result
}

// exploreBatch evaluates n design points, job i being a point on its
// options, walking each group of identically routed points once. name(i)
// names job i in errors.
func exploreBatch(ctx context.Context, n int, job func(i int) (Options, DesignPoint),
	name func(i int) string, cfg runner.Config) ([]explored, error) {
	// Resolution goes through the cache: after the first sweep of a
	// geometry it is a lookup per point.
	pts := make([]explored, n)
	for i := range pts {
		oi, p := job(i)
		f, err := oi.resolve(p, false)
		if err == nil {
			pts[i].tm, err = oi.cache().Soteriou(f.net, oi.Traffic)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", name(i), err)
		}
		pts[i].fabric = f
	}
	groups := routeGroups(pts)
	var mu sync.Mutex
	done := 0
	_, err := runner.Map(ctx, len(groups), runner.Config{Workers: cfg.Workers}, func(_ context.Context, g int) (struct{}, error) {
		members := groups[g]
		lead := pts[members[0]]
		nets := make([]*topology.Network, len(members))
		for k, i := range members {
			nets[k] = pts[i].net
		}
		oi, _ := job(members[0])
		res, err := analytic.EvaluateShared(nets, lead.tab, lead.tm, analytic.Params{
			DSENT: oi.DSENT, RouterPipelineClks: oi.RouterPipelineClks,
		})
		if err != nil {
			return struct{}{}, fmt.Errorf("core: %s: %w", name(members[0]), err)
		}
		for k, i := range members {
			pts[i].res = res[k]
		}
		if cfg.Progress != nil {
			mu.Lock()
			defer mu.Unlock()
			for range members {
				done++
				cfg.Progress(done, n)
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// routeGroups partitions a batch's points into groups that one route
// walk serves: the same traffic matrix, the same wiring and the same next
// hops. Groups and their members keep batch order.
func routeGroups(pts []explored) [][]int {
	var groups [][]int
	for i, p := range pts {
		g := slices.IndexFunc(groups, func(members []int) bool {
			lead := pts[members[0]]
			return lead.tm == p.tm && lead.net.SameWiring(p.net) && lead.tab.SameRoutes(p.tab)
		})
		if g < 0 {
			groups = append(groups, []int{i})
		} else {
			groups[g] = append(groups[g], i)
		}
	}
	return groups
}

// WithKind returns a copy of the Options targeting the given topology
// kind; the rest of the configuration (grid, traffic, policy) is shared.
func (o Options) WithKind(k topology.Kind) Options {
	o.Topology.Kind = k
	return o
}

// KindExploration is one row of a cross-topology comparison: a design
// point evaluated on one topology kind, with the structural figures the
// kinds differ on.
type KindExploration struct {
	Kind  topology.Kind
	Point DesignPoint
	analytic.Result
	// NumNodes, Channels and MaxPorts summarize the built structure
	// (routers, unidirectional channels, widest router radix).
	NumNodes, Channels, MaxPorts int
}

// ExploreKinds runs the analytic evaluation across the kind × design-point
// matrix — the cross-topology generalization of Explore, sharing its
// batch: the points of one kind whose fabrics route identically are
// walked once, and every result is bit-identical to analytic.Evaluate on
// its point alone. Results come back kind-major, point-minor, the same for
// any worker count. Non-mesh kinds reject express design points at Build
// time; pass plain (Hops = 0) points for kind-portable sweeps.
func ExploreKinds(ctx context.Context, kinds []topology.Kind, points []DesignPoint, o Options, cfg runner.Config) ([]KindExploration, error) {
	if len(kinds) == 0 || len(points) == 0 {
		return nil, fmt.Errorf("core: kind exploration needs kinds and points")
	}
	kindOpts := make([]Options, len(kinds))
	for k, kind := range kinds {
		kindOpts[k] = o.WithKind(kind)
	}
	np := len(points)
	res, err := exploreBatch(ctx, len(kinds)*np,
		func(i int) (Options, DesignPoint) { return kindOpts[i/np], points[i%np] },
		func(i int) string { return fmt.Sprintf("%v %v", kinds[i/np], points[i%np]) }, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]KindExploration, len(res))
	for i, r := range res {
		out[i] = KindExploration{
			Kind: kinds[i/np], Point: r.point, Result: r.res,
			NumNodes: r.net.NumNodes(), Channels: len(r.net.Links), MaxPorts: r.net.MaxPorts(),
		}
	}
	return out, nil
}

// LinkSweep regenerates the Fig. 3 dataset on the default length grid.
func LinkSweep() ([]link.SweepPoint, error) {
	return link.Sweep(link.Fig3Lengths())
}

// TraceResult is one bar of Fig. 6 plus the Table V energy accounting.
type TraceResult struct {
	Kernel npb.Kernel
	Point  DesignPoint
	// AvgLatencyClks is the simulated average packet latency.
	AvgLatencyClks float64
	// DynamicEnergyJ is the total dynamic energy of the run (links +
	// routers), the Table V quantity.
	DynamicEnergyJ float64
	// StaticPowerW is the network's static power (Table IV quantity).
	StaticPowerW float64
	// Stats is the raw simulation output.
	Stats noc.Stats
}

// RunTraceExperiment simulates one NPB kernel trace on one design point
// with the cycle-accurate simulator, then prices the run with the
// modified-DSENT models.
func RunTraceExperiment(kernel npb.Config, point DesignPoint, o Options, nocCfg noc.Config) (TraceResult, error) {
	job := TraceJob{Kernel: kernel, Point: point}
	f, err := o.resolve(point, false)
	if err != nil {
		return TraceResult{}, err
	}
	packets, err := job.packets(f.net.NumNodes())
	if err != nil {
		return TraceResult{}, err
	}
	stats, err := simulate(nil, f.net, f.tab, nocCfg, workload{pkts: packets})
	if err != nil {
		return TraceResult{}, err
	}
	return o.priceTrace(job, f, stats)
}

// TraceJob names one trace experiment of a batch: an NPB kernel
// configuration, or an already-parsed trace, simulated on one design
// point.
type TraceJob struct {
	Kernel npb.Config
	Point  DesignPoint
	// Events, when non-nil, is replayed in place of Kernel's generated
	// trace (a file written by hyppi-trace, say); Kernel then only labels
	// the result. Events are only read.
	Events []trace.Event
}

// packets generates (or takes) the job's trace and packetizes it for a
// network of n nodes.
func (j TraceJob) packets(n int) ([]noc.Packet, error) {
	events := j.Events
	if events == nil {
		var err error
		if events, err = npb.Generate(j.Kernel); err != nil {
			return nil, err
		}
	}
	return trace.Packetize(events, n, trace.DefaultPacketize())
}

// traceKey identifies the packets a job replays: its kernel
// configuration, or the identity of its Events slice, packetized for a
// node count.
type traceKey struct {
	kernel npb.Config
	events *trace.Event
	count  int
	replay bool
	nodes  int
}

func (j TraceJob) key(nodes int) traceKey {
	if j.Events == nil {
		return traceKey{kernel: j.Kernel, nodes: nodes}
	}
	k := traceKey{count: len(j.Events), replay: true, nodes: nodes}
	if len(j.Events) > 0 {
		k.events = &j.Events[0]
	}
	return k
}

// sharedTrace is one distinct trace of a batch: the first job to need it
// generates and packetizes it, the others read the same packets, and the
// last job to finish with it drops them.
type sharedTrace struct {
	once    sync.Once
	packets []noc.Packet
	err     error
	users   atomic.Int32
}

// get returns the trace's packets, preparing them on first use.
func (t *sharedTrace) get(job TraceJob, nodes int) ([]noc.Packet, error) {
	t.once.Do(func() { t.packets, t.err = job.packets(nodes) })
	return t.packets, t.err
}

// release drops the packets once every job using them is done.
func (t *sharedTrace) release() {
	if t.users.Add(-1) == 0 {
		t.packets = nil
	}
}

// priceTrace prices a job's simulated run with the modified-DSENT models
// on the job's own network.
func (o Options) priceTrace(job TraceJob, f fabric, stats noc.Stats) (TraceResult, error) {
	dynamic, static, err := PriceRun(f.net, stats, o.DSENT)
	if err != nil {
		return TraceResult{}, err
	}
	return TraceResult{
		Kernel:         job.Kernel.Kernel,
		Point:          job.Point,
		AvgLatencyClks: stats.AvgPacketLatencyClks,
		DynamicEnergyJ: dynamic,
		StaticPowerW:   static,
		Stats:          stats,
	}, nil
}

// timingRun is one simulation the jobs of a timing group share: the
// first member to arrive runs it, the others wait for its Stats.
type timingRun struct {
	once    sync.Once
	stats   noc.Stats
	err     error
	members int
}

// result returns the group's run, simulating it on first use, as Stats of
// the member whose links are net's: a group of several members hands each
// its own counter slices and the per-technology census of its own links.
func (r *timingRun) result(net *topology.Network, sim func() (noc.Stats, error)) (noc.Stats, error) {
	r.once.Do(func() { r.stats, r.err = sim() })
	if r.err != nil || r.members == 1 {
		return r.stats, r.err
	}
	st := r.stats
	st.LinkFlits = slices.Clone(st.LinkFlits)
	st.RouterFlits = slices.Clone(st.RouterFlits)
	st.Activity.SourceFlits = slices.Clone(st.Activity.SourceFlits)
	st.Activity.LinkFlitHops = [tech.NumTechnologies]int64{}
	for l, c := range st.LinkFlits {
		st.Activity.LinkFlitHops[net.Links[l].Tech] += c
	}
	return st, nil
}

// traceBatch is a trace batch resolved up front: each job's fabric (or
// resolution error), its shared trace and its timing group's run.
type traceBatch struct {
	fabs   []fabric
	errs   []error
	traces []*sharedTrace
	runs   []*timingRun
}

// planTraces resolves a batch's jobs and groups them. Jobs share a trace
// when they replay the same packets (see TraceJob.key), and a timing run
// when they also simulate identically: the same wiring, the same next
// hops and the same latency on every link. Each job is compared only with
// the first job of each group formed before it.
func (o Options) planTraces(jobs []TraceJob) traceBatch {
	b := traceBatch{
		fabs:   make([]fabric, len(jobs)),
		errs:   make([]error, len(jobs)),
		traces: make([]*sharedTrace, len(jobs)),
		runs:   make([]*timingRun, len(jobs)),
	}
	byKey := map[traceKey]*sharedTrace{}
	var leads []int
	for i, job := range jobs {
		if b.fabs[i], b.errs[i] = o.resolve(job.Point, false); b.errs[i] != nil {
			continue
		}
		k := job.key(b.fabs[i].net.NumNodes())
		if byKey[k] == nil {
			byKey[k] = &sharedTrace{}
		}
		b.traces[i] = byKey[k]
		b.traces[i].users.Add(1)
		if g := slices.IndexFunc(leads, func(l int) bool { return b.sameTiming(l, i) }); g >= 0 {
			b.runs[i] = b.runs[leads[g]]
		} else {
			leads = append(leads, i)
			b.runs[i] = &timingRun{}
		}
		b.runs[i].members++
	}
	return b
}

// sameTiming reports whether jobs i and j simulate identically: they
// replay one trace on networks the kernel cannot tell apart. The kernel
// reads a link's technology only for the per-class census, which
// timingRun.result re-derives per member.
func (b *traceBatch) sameTiming(i, j int) bool {
	fi, fj := b.fabs[i], b.fabs[j]
	if b.traces[i] != b.traces[j] || !fi.net.SameWiring(fj.net) || !fi.tab.SameRoutes(fj.tab) {
		return false
	}
	for l := range fi.net.Links {
		if fi.net.Links[l].LatencyClks != fj.net.Links[l].LatencyClks {
			return false
		}
	}
	return true
}

// RunTraceExperiments executes a batch of independent trace simulations on
// a bounded worker pool, returning results in job order. Each job is a
// RunTraceExperiment — trace generation (unless the job carries Events),
// packetization, cycle-accurate simulation and DSENT pricing — but the
// batch does shared work once:
//
//   - Jobs with the same kernel configuration, or the same Events slice,
//     on networks of one node count replay one read-only packet list,
//     generated by the first job that needs it and dropped after the last.
//     Generation and packetization are pure functions of the trace and
//     the node count, and the simulator only reads its packets.
//   - Jobs that also share the wiring, the next hops and every link's
//     latency share one simulation, run by the first of them to start.
//     Such runs are identical cycle for cycle: the kernel reads a link's
//     technology only to file its traversals under a technology class.
//     Table II gives every optical technology a 2-clock link, so HyPPI
//     and photonic express at one hop length are one run priced twice;
//     electronic express (1 clock) is a run of its own. Each job gets its
//     own copy of the run's counters, with the per-technology census
//     re-derived from its own links, and is priced on its own network.
//
// So per-job results are bit-identical to running the jobs one by one.
// Simulators are recycled across the batch through one noc.SimPool (jobs
// sharing a design point share simulators), bounding simulator
// construction at one per live worker per point. The first failure
// cancels the remaining jobs.
func RunTraceExperiments(ctx context.Context, jobs []TraceJob, o Options, nocCfg noc.Config, cfg runner.Config) ([]TraceResult, error) {
	b := o.planTraces(jobs)
	sims := noc.NewSimPool()
	run := func(i int) (TraceResult, error) {
		if b.errs[i] != nil {
			return TraceResult{}, b.errs[i]
		}
		defer b.traces[i].release()
		f := b.fabs[i]
		stats, err := b.runs[i].result(f.net, func() (noc.Stats, error) {
			packets, err := b.traces[i].get(jobs[i], f.net.NumNodes())
			if err != nil {
				return noc.Stats{}, err
			}
			return simulate(sims, f.net, f.tab, nocCfg, workload{pkts: packets})
		})
		if err != nil {
			return TraceResult{}, err
		}
		return o.priceTrace(jobs[i], f, stats)
	}
	return runner.Map(ctx, len(jobs), cfg, func(_ context.Context, i int) (TraceResult, error) {
		res, err := run(i)
		if err != nil {
			name := jobs[i].Kernel.Kernel.String()
			if jobs[i].Events != nil {
				name = "trace"
			}
			return TraceResult{}, fmt.Errorf("core: %s on %v: %w", name, jobs[i].Point, err)
		}
		return res, nil
	})
}

// PriceRun converts simulator flit counters into total dynamic energy and
// reports the network's static power, using the modified-DSENT models —
// exactly how the paper computes Table V from BookSim flit counts.
func PriceRun(net *topology.Network, stats noc.Stats, cfg dsent.Config) (dynamicJ, staticW float64, err error) {
	type key struct {
		t tech.Technology
		l float64
	}
	linkCosts := map[key]dsent.LinkCost{}
	for i, l := range net.Links {
		k := key{l.Tech, l.LengthM}
		lc, ok := linkCosts[k]
		if !ok {
			lc, err = dsent.Link(cfg, l.Tech, l.LengthM)
			if err != nil {
				return 0, 0, err
			}
			linkCosts[k] = lc
		}
		dynamicJ += float64(stats.LinkFlits[i]) * lc.DynamicJPerFlit
		staticW += lc.StaticW
	}
	routerCosts := map[int]dsent.RouterCost{}
	for id := 0; id < net.NumNodes(); id++ {
		ports := net.Ports(topology.NodeID(id))
		rc, ok := routerCosts[ports]
		if !ok {
			rc = dsent.ElectronicRouter(cfg, ports)
			routerCosts[ports] = rc
		}
		dynamicJ += float64(stats.RouterFlits[id]) * rc.DynamicJPerFlit
		staticW += rc.StaticW
	}
	return dynamicJ, staticW, nil
}

// AllOpticalRadar produces the Fig. 8 three-corner comparison under the
// paper's synthetic traffic.
func AllOpticalRadar(o Options) (optical.Radar, error) {
	var radar optical.Radar
	plain := DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}
	f, err := o.resolve(plain, false)
	if err != nil {
		return radar, err
	}
	net, tab := f.net, f.tab
	tm, err := o.cache().Soteriou(net, o.Traffic)
	if err != nil {
		return radar, err
	}
	res, err := analytic.Evaluate(net, tab, tm, analytic.Params{
		DSENT: o.DSENT, RouterPipelineClks: o.RouterPipelineClks,
	})
	if err != nil {
		return radar, err
	}
	delivered := tm.MeanRowSum() * float64(net.NumNodes()) *
		float64(o.DSENT.FlitBits) * o.DSENT.ClockHz
	radar.Electronic = optical.ElectronicReference(res.PowerW, res.AvgLatencyClks, res.AreaM2, delivered)

	p := optical.DefaultParams()
	p.LinkCapacityBps = o.DSENT.LinkCapacityBps
	p.RouterPipelineClks = o.RouterPipelineClks
	// Both router models price the same routes: one walk tallies the turn
	// weights that choose their port assignments.
	proj, err := optical.ProjectRouters(net, tab, tm,
		[]optical.RouterModel{optical.HyPPIRouter(), optical.PhotonicRouter()}, p, res.AvgLatencyClks)
	if err != nil {
		return radar, err
	}
	radar.HyPPI, radar.Photonic = proj[0], proj[1]
	return radar, nil
}

// CLEARRatioVsPlain returns each point's CLEAR normalized to the plain mesh
// of the same base technology — the Fig. 5 presentation.
func CLEARRatioVsPlain(results []ExplorationResult) map[DesignPoint]float64 {
	plain := map[tech.Technology]float64{}
	for _, r := range results {
		if r.Point.Hops == 0 {
			plain[r.Point.Base] = r.CLEAR
		}
	}
	out := make(map[DesignPoint]float64, len(results))
	for _, r := range results {
		if base, ok := plain[r.Point.Base]; ok && base > 0 {
			out[r.Point] = r.CLEAR / base
		}
	}
	return out
}

// FormatEnergy renders joules for tables.
func FormatEnergy(j float64) string { return units.FormatSI(j, "J") }

// FormatArea renders square metres as mm².
func FormatArea(a float64) string {
	return fmt.Sprintf("%.3g mm²", a/units.MillimetreSq)
}
