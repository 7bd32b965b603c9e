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
// pool; because each design point is an independent, deterministic job and
// results are collected in point order, its output is bit-identical to the
// historical serial loop.
func Explore(points []DesignPoint, o Options) ([]ExplorationResult, error) {
	return ExploreContext(context.Background(), points, o, runner.Config{})
}

// ExploreContext is Explore on an explicit context and worker-pool
// configuration: design points are evaluated concurrently, the first
// failure cancels the remaining points, and cfg.Progress observes
// completions. Results are returned in point order whatever the pool size.
func ExploreContext(ctx context.Context, points []DesignPoint, o Options, cfg runner.Config) ([]ExplorationResult, error) {
	return runner.Map(ctx, len(points), cfg, func(_ context.Context, i int) (ExplorationResult, error) {
		_, _, res, err := o.evaluate(points[i])
		if err != nil {
			return ExplorationResult{}, fmt.Errorf("core: %v: %w", points[i], err)
		}
		return ExplorationResult{Point: points[i], Result: res}, nil
	})
}

// evaluate is the Section III-B analytic job body shared by Explore,
// ExploreKinds and AllOpticalRadar: resolve the design point's fabric and
// the (cached) Soteriou traffic on it, then evaluate the pair.
func (o Options) evaluate(p DesignPoint) (fabric, *traffic.Matrix, analytic.Result, error) {
	f, err := o.resolve(p, false)
	if err != nil {
		return fabric{}, nil, analytic.Result{}, err
	}
	tm, err := o.cache().Soteriou(f.net, o.Traffic)
	if err != nil {
		return fabric{}, nil, analytic.Result{}, err
	}
	res, err := analytic.Evaluate(f.net, f.tab, tm, analytic.Params{
		DSENT: o.DSENT, RouterPipelineClks: o.RouterPipelineClks,
	})
	return f, tm, res, err
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
// matrix on the worker pool — the cross-topology generalization of
// Explore. Each job resolves its network through the shared cache and is a
// pure function of its index, so results (kind-major, point-minor order)
// are bit-identical for any worker count. Non-mesh kinds reject express
// design points at Build time; pass plain (Hops = 0) points for
// kind-portable sweeps.
func ExploreKinds(ctx context.Context, kinds []topology.Kind, points []DesignPoint, o Options, cfg runner.Config) ([]KindExploration, error) {
	if len(kinds) == 0 || len(points) == 0 {
		return nil, fmt.Errorf("core: kind exploration needs kinds and points")
	}
	return runner.Map(ctx, len(kinds)*len(points), cfg, func(_ context.Context, i int) (KindExploration, error) {
		kind, p := kinds[i/len(points)], points[i%len(points)]
		f, _, res, err := o.WithKind(kind).evaluate(p)
		if err != nil {
			return KindExploration{}, fmt.Errorf("core: %v %v: %w", kind, p, err)
		}
		return KindExploration{
			Kind: kind, Point: p, Result: res,
			NumNodes: f.net.NumNodes(), Channels: len(f.net.Links), MaxPorts: f.net.MaxPorts(),
		}, nil
	})
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
	return o.traceJob(TraceJob{Kernel: kernel, Point: point}, nocCfg, nil)
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

// traceJob is the one trace job body: packetize the job's trace for its
// design point's (cached) network, simulate it on a Sim drawn from sims
// (nil builds a fresh one) and price the run with the modified-DSENT
// models. A kernel's trace is generated inside the job, so a batch
// generates its traces in parallel.
func (o Options) traceJob(job TraceJob, nocCfg noc.Config, sims *noc.SimPool) (TraceResult, error) {
	f, err := o.resolve(job.Point, false)
	if err != nil {
		return TraceResult{}, err
	}
	packets, err := job.packets(f.net.NumNodes())
	if err != nil {
		return TraceResult{}, err
	}
	stats, err := simulate(sims, f.net, f.tab, nocCfg, workload{pkts: packets})
	if err != nil {
		return TraceResult{}, err
	}
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

// RunTraceExperiments executes a batch of independent trace simulations on
// a bounded worker pool, returning results in job order. Each job is a full
// RunTraceExperiment — trace generation (unless the job carries Events),
// packetization, cycle-accurate simulation and DSENT pricing — so per-job
// results are bit-identical to running the jobs serially. Simulators are
// recycled across the batch through one noc.SimPool (jobs sharing a design
// point share simulators), bounding simulator construction at one per live
// worker per point. The first failure cancels the remaining jobs.
func RunTraceExperiments(ctx context.Context, jobs []TraceJob, o Options, nocCfg noc.Config, cfg runner.Config) ([]TraceResult, error) {
	sims := noc.NewSimPool()
	return runner.Map(ctx, len(jobs), cfg, func(_ context.Context, i int) (TraceResult, error) {
		res, err := o.traceJob(jobs[i], nocCfg, sims)
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
	f, tm, res, err := o.evaluate(plain)
	if err != nil {
		return radar, err
	}
	net, tab := f.net, f.tab
	delivered := tm.MeanRowSum() * float64(net.NumNodes()) *
		float64(o.DSENT.FlitBits) * o.DSENT.ClockHz
	radar.Electronic = optical.ElectronicReference(res.PowerW, res.AvgLatencyClks, res.AreaM2, delivered)

	p := optical.DefaultParams()
	p.LinkCapacityBps = o.DSENT.LinkCapacityBps
	p.RouterPipelineClks = o.RouterPipelineClks
	radar.HyPPI, err = optical.ProjectAllOptical(net, tab, tm, optical.HyPPIRouter(), p, res.AvgLatencyClks)
	if err != nil {
		return radar, err
	}
	radar.Photonic, err = optical.ProjectAllOptical(net, tab, tm, optical.PhotonicRouter(), p, res.AvgLatencyClks)
	if err != nil {
		return radar, err
	}
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
