// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each benchmark regenerates its dataset and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reprints the paper's results next to wall-clock cost. Trace-driven
// benchmarks run at a reduced NPB scale (the cmd/ tools run full scale).
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/dsent"
	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/optical"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/serve/loadtest"
	"repro/internal/taskgraph"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/units"
)

// BenchmarkFig3LinkCLEAR regenerates the link-level CLEAR curves and
// reports where the electronic→HyPPI crossover falls (paper: between
// intra-processor and inter-core distances).
func BenchmarkFig3LinkCLEAR(b *testing.B) {
	var crossoverM float64
	for i := 0; i < b.N; i++ {
		pts, err := link.Sweep(link.Fig3Lengths())
		if err != nil {
			b.Fatal(err)
		}
		crossoverM = 0
		for _, p := range pts {
			if p.Best() == tech.HyPPI {
				crossoverM = p.LengthM
				break
			}
		}
	}
	b.ReportMetric(crossoverM/units.Micrometre, "crossover_µm")
}

// BenchmarkTableIIICapabilityR regenerates Table III: capability C and
// utilization growth R for the plain mesh and the three express hop
// lengths.
func BenchmarkTableIIICapabilityR(b *testing.B) {
	o := core.DefaultOptions()
	pts := []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 5},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 15},
	}
	var res []core.ExplorationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Explore(pts, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res[0].CapabilityGbpsPerNode, "C_plain_Gbps")
	b.ReportMetric(res[1].CapabilityGbpsPerNode, "C_h3_Gbps")
	b.ReportMetric(res[0].R, "R_plain")
	b.ReportMetric(res[1].R, "R_h3")
	b.ReportMetric(res[3].R, "R_h15")
}

// BenchmarkFig5DesignSpace regenerates the full 30-point Fig. 5 grid and
// reports the paper's headline CLEAR improvement (E base + HyPPI express @3
// vs plain E mesh; paper: up to 1.8×).
func BenchmarkFig5DesignSpace(b *testing.B) {
	o := warmOptions(b, core.DefaultDesignSpace())
	var headline float64
	for i := 0; i < b.N; i++ {
		res, err := core.Explore(core.DefaultDesignSpace(), o)
		if err != nil {
			b.Fatal(err)
		}
		ratios := core.CLEARRatioVsPlain(res)
		headline = ratios[core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}]
	}
	b.ReportMetric(headline, "CLEAR_ratio_EH3")
}

// warmOptions returns the default options on a scoped network cache
// already holding the points' networks, tables and traffic, and resets
// the timer: an analytic row then times its sweep, not the first build of
// its fabrics, whichever benchmarks ran before it.
func warmOptions(b *testing.B, pts []core.DesignPoint) core.Options {
	b.Helper()
	o := core.DefaultOptions()
	o.Cache = core.NewNetworkCache()
	if _, err := core.Explore(pts, o); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return o
}

// BenchmarkTableIVStaticPower regenerates the static power table (paper:
// E base 1.53 W; photonic express ≈3.08 W @3 hops; HyPPI ≈1.545 W).
func BenchmarkTableIVStaticPower(b *testing.B) {
	pts := []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.Photonic, Hops: 3},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	o := warmOptions(b, pts)
	var res []core.ExplorationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Explore(pts, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res[0].StaticW, "static_base_W")
	b.ReportMetric(res[1].StaticW, "static_photonic_h3_W")
	b.ReportMetric(res[2].StaticW, "static_hyppi_h3_W")
}

// BenchmarkFig5SweepWorkers measures the parallel experiment engine on the
// full 30-point Fig. 5 sweep across pool sizes: workers=1 is the serial
// baseline, the larger pools show the wall-clock speedup of the
// embarrassingly-parallel runner (bounded by available cores — compare the
// points/s metric between sub-benchmarks). Results are bit-identical at
// every pool size.
func BenchmarkFig5SweepWorkers(b *testing.B) {
	pts := core.DefaultDesignSpace()
	o := warmOptions(b, pts)
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g > 4 {
		counts = append(counts, g)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.ExploreContext(context.Background(), pts, o,
					runner.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(pts) {
					b.Fatalf("%d results", len(res))
				}
			}
			b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkTraceBatchWorkers measures the worker pool on a batch of
// cycle-accurate trace simulations (the Fig. 6 shape): four LU runs at
// reduced scale, serial vs pooled.
func BenchmarkTraceBatchWorkers(b *testing.B) {
	o := core.DefaultOptions()
	var jobs []core.TraceJob
	for _, hops := range []int{0, 3, 5, 15} {
		jobs = append(jobs, core.TraceJob{Kernel: benchTraceCfg(npb.LU), Point: core.DesignPoint{
			Base: tech.Electronic, Express: tech.HyPPI, Hops: hops}})
	}
	counts := []int{1, 4}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.RunTraceExperiments(context.Background(), jobs, o,
					noc.DefaultConfig(), runner.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(jobs) {
					b.Fatalf("%d results", len(res))
				}
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "sims/s")
		})
	}
}

// benchTraceCfg returns the reduced-scale NPB config used by the
// trace-driven benchmarks.
func benchTraceCfg(k npb.Kernel) npb.Config {
	cfg := npb.DefaultConfig(k)
	cfg.Scale = 1.0 / 64
	cfg.Iterations = 1
	return cfg
}

// BenchmarkFig6NPBLatency regenerates the Fig. 6 latency bars per kernel
// (reduced scale), reporting mesh latency and the best express speedup.
func BenchmarkFig6NPBLatency(b *testing.B) {
	o := core.DefaultOptions()
	for _, k := range npb.Kernels {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var mesh, best float64
			for i := 0; i < b.N; i++ {
				lat := map[int]float64{}
				for _, hops := range []int{0, 3, 5, 15} {
					point := core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: hops}
					res, err := core.RunTraceExperiment(benchTraceCfg(k), point, o, noc.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					lat[hops] = res.AvgLatencyClks
				}
				mesh = lat[0]
				best = 0
				for _, hops := range []int{3, 5, 15} {
					if s := lat[0] / lat[hops]; s > best {
						best = s
					}
				}
			}
			b.ReportMetric(mesh, "mesh_latency_clks")
			b.ReportMetric(best, "best_speedup_x")
		})
	}
}

// BenchmarkTableVDynamicEnergy regenerates the FT dynamic-energy comparison
// (reduced scale): electronic vs photonic vs HyPPI express at 3 hops
// (paper: 0.0054 / 0.9353 / 0.0049 J, base mesh 0.0042 J).
func BenchmarkTableVDynamicEnergy(b *testing.B) {
	pts := []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 3},
		{Base: tech.Electronic, Express: tech.Photonic, Hops: 3},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	o := warmOptions(b, pts)
	var base, elec, photonic, hyppi float64
	for i := 0; i < b.N; i++ {
		run := func(p core.DesignPoint) float64 {
			res, err := core.RunTraceExperiment(benchTraceCfg(npb.FT), p, o, noc.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			return res.DynamicEnergyJ
		}
		base, elec, photonic, hyppi = run(pts[0]), run(pts[1]), run(pts[2]), run(pts[3])
	}
	b.ReportMetric(base*1e6, "base_µJ")
	b.ReportMetric(elec*1e6, "elec_h3_µJ")
	b.ReportMetric(photonic*1e6, "photonic_h3_µJ")
	b.ReportMetric(hyppi*1e6, "hyppi_h3_µJ")
}

// BenchmarkTableVIRouters regenerates the optical router comparison and the
// optimal port assignment cost.
func BenchmarkTableVIRouters(b *testing.B) {
	var w optical.TurnWeights
	w[optical.West][optical.East] = 10
	w[optical.East][optical.West] = 10
	w[optical.North][optical.South] = 3
	w[optical.South][optical.North] = 3
	w[optical.Local][optical.East] = 1
	w[optical.West][optical.Local] = 1
	var hyppiCost, photonicCost float64
	for i := 0; i < b.N; i++ {
		_, hyppiCost = optical.HyPPIRouter().OptimalAssignment(w)
		_, photonicCost = optical.PhotonicRouter().OptimalAssignment(w)
	}
	b.ReportMetric(hyppiCost, "hyppi_mean_loss_dB")
	b.ReportMetric(photonicCost, "photonic_mean_loss_dB")
}

// BenchmarkFig8AllOptical regenerates the radar projections, reporting the
// two headline ratios (paper: optical ≈255× more energy efficient than
// electronics; all-HyPPI ≈100× smaller than all-photonic).
func BenchmarkFig8AllOptical(b *testing.B) {
	o := core.DefaultOptions()
	var radar optical.Radar
	for i := 0; i < b.N; i++ {
		var err error
		radar, err = core.AllOpticalRadar(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(radar.Electronic.EnergyPerBitJ/radar.HyPPI.EnergyPerBitJ, "energy_ratio_E_vs_HyPPI")
	b.ReportMetric(radar.Photonic.AreaM2/radar.HyPPI.AreaM2, "area_ratio_P_vs_HyPPI")
	b.ReportMetric(radar.HyPPI.AreaM2/units.MillimetreSq, "hyppi_area_mm2")
}

// BenchmarkAblationInjectionSweep sweeps the injection rate 0.01→0.1
// (paper: only a small CLEAR reduction) and reports the ratio.
func BenchmarkAblationInjectionSweep(b *testing.B) {
	net := topology.MustBuild(topology.DefaultConfig())
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	base := traffic.MustSoteriou(net, traffic.DefaultSoteriou())
	params := analytic.DefaultParams()
	var ratio float64
	for i := 0; i < b.N; i++ {
		lo, err := analytic.Evaluate(net, tab, base.ScaledToMaxRate(0.01), params)
		if err != nil {
			b.Fatal(err)
		}
		hi, err := analytic.Evaluate(net, tab, base.ScaledToMaxRate(0.1), params)
		if err != nil {
			b.Fatal(err)
		}
		ratio = lo.CLEAR / hi.CLEAR
	}
	b.ReportMetric(ratio, "CLEAR_r0.01_over_r0.1")
}

// BenchmarkAblationRoutingPolicy compares the deadlock-free monotone policy
// against BookSim-style BFS shortest hops on the hops=5 hybrid: BFS finds
// shorter routes via express on-ramps at the price of deadlock risk in a
// real router (the simulator only runs the monotone policy).
func BenchmarkAblationRoutingPolicy(b *testing.B) {
	c := topology.DefaultConfig()
	c.ExpressTech = tech.HyPPI
	c.ExpressHops = 5
	net := topology.MustBuild(c)
	tm := traffic.MustSoteriou(net, traffic.DefaultSoteriou())
	params := analytic.DefaultParams()
	var dMono, dBFS float64
	for i := 0; i < b.N; i++ {
		mono, err := analytic.Evaluate(net, routing.MustBuild(net, routing.MonotoneExpress), tm, params)
		if err != nil {
			b.Fatal(err)
		}
		bfs, err := analytic.Evaluate(net, routing.MustBuild(net, routing.ShortestHops), tm, params)
		if err != nil {
			b.Fatal(err)
		}
		dMono, dBFS = mono.MeanHops, bfs.MeanHops
	}
	b.ReportMetric(dMono, "mean_hops_monotone")
	b.ReportMetric(dBFS, "mean_hops_bfs")
}

// BenchmarkSimulatorThroughput measures the raw cycle-accurate simulator
// speed in flit-hops per second on uniform traffic.
func BenchmarkSimulatorThroughput(b *testing.B) {
	net := topology.MustBuild(topology.DefaultConfig())
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	cfg := npb.DefaultConfig(npb.MG)
	cfg.Scale = 1.0 / 32
	events := npb.MustGenerate(cfg)
	var flitHops float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := noc.New(net, tab, noc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		pkts, err := trace.Packetize(events, net.NumNodes(), trace.DefaultPacketize())
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.InjectAll(pkts); err != nil {
			b.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		var hops int64
		for _, v := range st.LinkFlits {
			hops += v
		}
		flitHops = float64(hops)
	}
	b.ReportMetric(flitHops*float64(b.N)/b.Elapsed().Seconds(), "flit-hops/s")
}

// BenchmarkSimulatorThroughputReuse is BenchmarkSimulatorThroughput on the
// Sim.Reset reuse path: one simulator recycled through a SimPool across
// iterations, isolating the construction cost the pool removes from every
// sweep point after the first.
func BenchmarkSimulatorThroughputReuse(b *testing.B) {
	net := topology.MustBuild(topology.DefaultConfig())
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	cfg := npb.DefaultConfig(npb.MG)
	cfg.Scale = 1.0 / 32
	events := npb.MustGenerate(cfg)
	pool := noc.NewSimPool()
	var flitHops float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := pool.Get(net, tab, noc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		pkts, err := trace.Packetize(events, net.NumNodes(), trace.DefaultPacketize())
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.InjectAll(pkts); err != nil {
			b.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(sim)
		var hops int64
		for _, v := range st.LinkFlits {
			hops += v
		}
		flitHops = float64(hops)
	}
	b.ReportMetric(flitHops*float64(b.N)/b.Elapsed().Seconds(), "flit-hops/s")
}

// BenchmarkEnergyAccounting measures the activity-based energy subsystem:
// one measured MG trace run on the 16×16 E + HyPPI express@3 hybrid is
// priced per iteration (the coefficient fold over ~1100 link counters plus
// the census scalars), reporting the run's measured fJ/bit and average
// power as metrics. Model construction is outside the timed loop, like
// network construction in the sweep benchmarks.
func BenchmarkEnergyAccounting(b *testing.B) {
	c := topology.DefaultConfig()
	c.ExpressTech = tech.HyPPI
	c.ExpressHops = 3
	net := topology.MustBuild(c)
	tab := routing.MustBuild(net, routing.MonotoneExpress)
	cfg := npb.DefaultConfig(npb.MG)
	cfg.Scale = 1.0 / 32
	events := npb.MustGenerate(cfg)
	sim, err := noc.New(net, tab, noc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pkts, err := trace.Packetize(events, net.NumNodes(), trace.DefaultPacketize())
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.InjectAll(pkts); err != nil {
		b.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	model, err := energy.NewModel(net, dsent.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var run energy.RunEnergy
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err = model.Price(st)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(run.FJPerBit, "fJ/bit")
	b.ReportMetric(run.AvgPowerW, "avg_W")
}

// BenchmarkExtensionWDMSweep quantifies the paper's wavelength-count
// argument: photonic link static power as rings are added beyond the
// 2-λ minimum, with capacity pinned by the SERDES.
func BenchmarkExtensionWDMSweep(b *testing.B) {
	cfg := dsent.DefaultConfig()
	var w2, w8 float64
	for i := 0; i < b.N; i++ {
		l2, err := dsent.LinkWDM(cfg, tech.Photonic, units.Millimetre, 2)
		if err != nil {
			b.Fatal(err)
		}
		l8, err := dsent.LinkWDM(cfg, tech.Photonic, units.Millimetre, 8)
		if err != nil {
			b.Fatal(err)
		}
		w2, w8 = l2.StaticW, l8.StaticW
	}
	b.ReportMetric(w2*1e3, "static_2λ_mW")
	b.ReportMetric(w8*1e3, "static_8λ_mW")
}

// BenchmarkExtensionExpress2D evaluates the "express cube" extension the
// paper declines (express links in both dimensions, 9-port routers):
// CLEAR and latency vs the paper's horizontal-only hybrid.
func BenchmarkExtensionExpress2D(b *testing.B) {
	o := core.DefaultOptions()
	params := analytic.Params{DSENT: o.DSENT, RouterPipelineClks: o.RouterPipelineClks}
	var clear1, clear2, lat1, lat2 float64
	for i := 0; i < b.N; i++ {
		eval := func(both bool) analytic.Result {
			c := o.Topology
			c.BaseTech = tech.Electronic
			c.ExpressTech = tech.HyPPI
			c.ExpressHops = 3
			c.ExpressBothDims = both
			net := topology.MustBuild(c)
			tab := routing.MustBuild(net, routing.MonotoneExpress)
			tm := traffic.MustSoteriou(net, o.Traffic)
			res, err := analytic.Evaluate(net, tab, tm, params)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		r1 := eval(false)
		r2 := eval(true)
		clear1, clear2 = r1.CLEAR, r2.CLEAR
		lat1, lat2 = r1.AvgLatencyClks, r2.AvgLatencyClks
	}
	b.ReportMetric(clear1, "CLEAR_1D")
	b.ReportMetric(clear2, "CLEAR_2D")
	b.ReportMetric(lat1, "latency_1D_clks")
	b.ReportMetric(lat2, "latency_2D_clks")
}

// BenchmarkTopologyKinds runs one cycle-accurate sweep point (uniform
// traffic at 0.05 flits/cycle on an 8×8 grid) per registered topology
// kind, guarding the registry's build → route → simulate paths and
// reporting each fabric's zero-load-ish latency side by side.
func BenchmarkTopologyKinds(b *testing.B) {
	sc := core.EnergySweepConfig{
		Rates:    []float64{0.05},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 2000, Seed: 7},
		NoC:      noc.DefaultConfig(),
	}
	for _, kind := range topology.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			o := core.DefaultOptions().WithKind(kind)
			o.Topology.Width, o.Topology.Height = 8, 8
			lat := benchPatternSweep(b, o, core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic}, sc)
			b.ReportMetric(lat[0], "latency_r0.05_clks")
		})
	}
}

// BenchmarkExtensionLoadLatency sweeps offered load through the
// cycle-accurate simulator on an 8×8 express mesh — the classic saturation
// curve, reported as latency at low/mid load.
func BenchmarkExtensionLoadLatency(b *testing.B) {
	o := core.DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	sc := core.EnergySweepConfig{
		Rates:    []float64{0.05, 0.35},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 3000, Seed: 11},
		NoC:      noc.DefaultConfig(),
	}
	lat := benchPatternSweep(b, o, core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}, sc)
	b.ReportMetric(lat[0], "latency_r0.05_clks")
	b.ReportMetric(lat[1], "latency_r0.35_clks")
}

// benchPatternSweep times a uniform-traffic core.PatternSweep of one
// design point and returns its curve's average latencies. The network is
// built before the timer starts and the sweep runs on one worker, so
// allocs/op counts only the sweep and does not depend on GOMAXPROCS.
func benchPatternSweep(b *testing.B, o core.Options, point core.DesignPoint, sc core.EnergySweepConfig) []float64 {
	pats, err := traffic.ParsePatterns("uniform")
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := o.NetworkAndTable(point); err != nil {
		b.Fatal(err)
	}
	var res []core.EnergySweepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.PatternSweep(context.Background(), []topology.Kind{o.Topology.Kind},
			[]core.DesignPoint{point}, pats, sc, o, runner.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	lat := make([]float64, len(res[0].Points))
	for i, p := range res[0].Points {
		lat[i] = p.AvgLatencyClks
	}
	return lat
}

// BenchmarkServeThroughput measures the simulation-as-a-service layer end
// to end: a fresh engine per iteration answers the standard 120-query
// mixed workload (12 distinct queries cycled, so cold evaluation plus
// cache/dedup serving), reporting the sustained rate and hit share — the
// quantities the serve-smoke CI gate bounds.
func BenchmarkServeThroughput(b *testing.B) {
	var qps, hitPct float64
	for i := 0; i < b.N; i++ {
		eng := serve.NewEngine(serve.Config{Workers: runtime.GOMAXPROCS(0)})
		rep, err := loadtest.Run(context.Background(), eng, loadtest.Config{Queries: 120, Clients: 8})
		eng.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed > 0 {
			b.Fatalf("%d queries failed: %+v", rep.Failed, rep)
		}
		qps, hitPct = rep.QPS, 100*rep.HitRate
	}
	b.ReportMetric(qps, "queries/s")
	b.ReportMetric(hitPct, "hit_%")
}

// BenchmarkTaskGraphMakespan measures the closed-loop task-graph layer
// end to end: the ring-allreduce and MoE all-to-all operator graphs
// replayed with dependency-gated injection on the paper's 8×8
// electronic + HyPPI express@5 hybrid, reporting each graph's end-to-end
// makespan and its stretch over the contention-free critical-path bound
// (the congestion-feedback figure of merit; ring-allreduce is
// contention-free on the ring, MoE is not).
func BenchmarkTaskGraphMakespan(b *testing.B) {
	gens, err := taskgraph.ParseGenerators("ring-allreduce,moe-alltoall")
	if err != nil {
		b.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Topology.Width, o.Topology.Height = 8, 8
	sc := core.DefaultTaskGraphSweep()
	points := []core.DesignPoint{{Base: tech.Electronic, Express: tech.HyPPI, Hops: 5}}
	// Build the network before the timer and run on one worker, so
	// allocs/op does not depend on cache warmth or GOMAXPROCS.
	if _, _, err := o.NetworkAndTable(points[0]); err != nil {
		b.Fatal(err)
	}
	var res []core.TaskGraphResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.TaskGraphSweep(context.Background(), points, gens, sc, o, runner.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res[0].MakespanClks), "allreduce_makespan_clks")
	b.ReportMetric(float64(res[1].MakespanClks), "moe_makespan_clks")
	b.ReportMetric(res[1].Stretch, "moe_stretch_x")
}

// BenchmarkFaultedSweep measures the fault and variation layer end to
// end: one mesh + HyPPI-express cell climbs a fault-rate ladder under the
// MODetector device variant — seed-derived failure schedules, adaptive
// reroute on the masked fabric, BER-driven retransmission under thermal
// drift, energy priced with trimming overhead. The ladder's rate-0 point
// runs the identical kernel with the fault profile disarmed, so the
// benchmark also tracks the zero-fault path's overhead (it must stay
// bit-identical to a run without the fault layer; see
// TestFaultSweepZeroFaultDifferential).
func BenchmarkFaultedSweep(b *testing.B) {
	o := core.DefaultOptions()
	o.Topology.Width, o.Topology.Height = 4, 4
	points := []core.DesignPoint{{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}}
	pats, err := traffic.ParsePatterns("uniform")
	if err != nil {
		b.Fatal(err)
	}
	sc := core.DefaultFaultSweep()
	sc.Rates = []float64{0, 0.15, 0.3}
	sc.Epochs = 3
	sc.Workload.Cycles = 500
	sc.NoC.MaxCycles = 50000
	var avail, clearDeg float64
	for i := 0; i < b.N; i++ {
		res, err := core.FaultSweep(context.Background(), []topology.Kind{topology.Mesh},
			points, []string{dsent.VariantMODetector}, pats, sc, o, runner.Config{})
		if err != nil {
			b.Fatal(err)
		}
		worst := res[0].Points[len(res[0].Points)-1]
		avail, clearDeg = worst.Availability, worst.CLEARDegradation
	}
	b.ReportMetric(avail, "avail_r0.3")
	b.ReportMetric(clearDeg, "clear_deg_r0.3")
}
