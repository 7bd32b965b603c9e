package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/optical"
	"repro/internal/report"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// The paper workload is what hyppi-all does, at a reduced NPB scale: one
// iteration of each kernel at 1/256 of the Class A volumes keeps a round
// near five seconds on one core.
const (
	paperNPBScale      = 1.0 / 256
	paperNPBIterations = 1
)

var paperWorkload = workload{
	name: "paper",
	params: map[string]any{
		"grid": "16x16", "design_points": len(core.DefaultDesignSpace()), "trace_jobs": len(paperJobs(0)),
		"npb_scale": paperNPBScale, "npb_iterations": paperNPBIterations, "workers": workers,
	},
	setup: setupPaper,
}

type paperBench struct {
	o      core.Options
	points []core.DesignPoint
	jobs   []core.TraceJob
	golden goldenFile
}

// paperResults are one round's figures.
type paperResults struct {
	fig3   []link.SweepPoint
	fig5   []core.ExplorationResult
	fig8   optical.Radar
	traces []core.TraceResult
}

// paperJobs is hyppi-all's Fig. 6 + Table V batch: the four kernels on the
// plain mesh and HyPPI express at three hop lengths, plus FT on electronic
// and photonic express.
func paperJobs(seed int64) []core.TraceJob {
	var jobs []core.TraceJob
	add := func(k npb.Kernel, express tech.Technology, hops int) {
		cfg := npb.DefaultConfig(k)
		cfg.Scale = paperNPBScale
		cfg.Iterations = paperNPBIterations
		cfg.Seed = seed
		jobs = append(jobs, core.TraceJob{Kernel: cfg, Point: core.DesignPoint{
			Base: tech.Electronic, Express: express, Hops: hops}})
	}
	for _, k := range npb.Kernels {
		add(k, tech.HyPPI, 0)
		for _, hops := range []int{3, 5, 15} {
			add(k, tech.HyPPI, hops)
		}
	}
	for _, express := range []tech.Technology{tech.Electronic, tech.Photonic} {
		for _, hops := range []int{3, 5, 15} {
			add(npb.FT, express, hops)
		}
	}
	return jobs
}

func setupPaper(cfg runConfig, tr *tracer) (bench, error) {
	golden, err := readGolden(cfg.root)
	if err != nil {
		return nil, err
	}
	b := &paperBench{o: core.DefaultOptions(), points: core.DefaultDesignSpace(),
		jobs: paperJobs(cfg.seed), golden: golden}
	b.o.Cache = core.NewNetworkCache()
	// The trace jobs' design points are all in the design space.
	if err := warmNetworks(b.o, b.points, tr); err != nil {
		return nil, err
	}
	net, _, err := b.o.NetworkAndTable(b.points[0])
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if _, err := tr.span("traffic.soteriou", func() error {
			_, err := traffic.Soteriou(net, b.o.Traffic)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if _, err := b.o.Cache.Soteriou(net, b.o.Traffic); err != nil {
		return nil, err
	}
	return b, nil
}

// run makes hyppi-all's calls: each figure is computed, written into
// memory by its report writer and read back through report.Check. The
// latency samples are the trace jobs, each timed as the runner completes
// it: the simulations a user of the paper workload waits on.
func (b *paperBench) run(ctx context.Context, lat *latencies) (round, error) {
	var r paperResults
	var err error
	if r.fig3, err = core.LinkSweep(); err != nil {
		return round{}, err
	}
	if err := writeReport(func(w io.Writer) error { return report.WriteLinkSweep(w, r.fig3) }); err != nil {
		return round{}, err
	}
	if r.fig5, err = core.ExploreContext(ctx, b.points, b.o, runner.Config{Workers: workers}); err != nil {
		return round{}, err
	}
	if err := writeReport(func(w io.Writer) error { return report.WriteExploration(w, r.fig5) }); err != nil {
		return round{}, err
	}
	if r.fig8, err = core.AllOpticalRadar(b.o); err != nil {
		return round{}, err
	}
	if err := writeReport(func(w io.Writer) error { return report.WriteRadar(w, r.fig8) }); err != nil {
		return round{}, err
	}
	if r.traces, err = core.RunTraceExperiments(ctx, b.jobs, b.o, noc.DefaultConfig(),
		runner.Config{Workers: workers, Progress: lat.progress()}); err != nil {
		return round{}, err
	}
	if err := writeReport(func(w io.Writer) error { return report.WriteTraceResults(w, r.traces) }); err != nil {
		return round{}, err
	}
	return b.check(r), nil
}

// replay makes the calls core.LinkSweep, core.ExploreContext,
// core.AllOpticalRadar and core.RunTraceExperiments make, in their order.
func (b *paperBench) replay(ctx context.Context, tr *tracer) (round, error) {
	var r paperResults
	o := b.o
	tr.op = 0
	if _, err := tr.span("link.sweep", func() (err error) {
		r.fig3, err = link.Sweep(link.Fig3Lengths())
		return err
	}); err != nil {
		return round{}, err
	}
	if err := tracedReport(tr, func(w io.Writer) error { return report.WriteLinkSweep(w, r.fig3) }); err != nil {
		return round{}, err
	}

	params := analytic.Params{DSENT: o.DSENT, RouterPipelineClks: o.RouterPipelineClks}
	evaluate := func(p core.DesignPoint) (analytic.Result, *topology.Network, *routing.Table, *traffic.Matrix, error) {
		net, tab, err := o.NetworkAndTable(p)
		if err != nil {
			return analytic.Result{}, nil, nil, nil, err
		}
		tm, err := o.Cache.Soteriou(net, o.Traffic)
		if err != nil {
			return analytic.Result{}, nil, nil, nil, err
		}
		var res analytic.Result
		_, err = tr.span("analytic.eval", func() (err error) {
			res, err = analytic.Evaluate(net, tab, tm, params)
			return err
		})
		return res, net, tab, tm, err
	}
	for _, p := range b.points {
		tr.op++
		res, _, _, _, err := evaluate(p)
		if err != nil {
			return round{}, fmt.Errorf("%v: %w", p, err)
		}
		r.fig5 = append(r.fig5, core.ExplorationResult{Point: p, Result: res})
	}
	if err := tracedReport(tr, func(w io.Writer) error { return report.WriteExploration(w, r.fig5) }); err != nil {
		return round{}, err
	}

	tr.op++
	res, net, tab, tm, err := evaluate(core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic})
	if err != nil {
		return round{}, err
	}
	if _, err := tr.span("optical.project", func() (err error) {
		delivered := tm.MeanRowSum() * float64(net.NumNodes()) * float64(o.DSENT.FlitBits) * o.DSENT.ClockHz
		r.fig8.Electronic = optical.ElectronicReference(res.PowerW, res.AvgLatencyClks, res.AreaM2, delivered)
		p := optical.DefaultParams()
		p.LinkCapacityBps = o.DSENT.LinkCapacityBps
		p.RouterPipelineClks = o.RouterPipelineClks
		if r.fig8.HyPPI, err = optical.ProjectAllOptical(net, tab, tm, optical.HyPPIRouter(), p, res.AvgLatencyClks); err != nil {
			return err
		}
		r.fig8.Photonic, err = optical.ProjectAllOptical(net, tab, tm, optical.PhotonicRouter(), p, res.AvgLatencyClks)
		return err
	}); err != nil {
		return round{}, err
	}
	if err := tracedReport(tr, func(w io.Writer) error { return report.WriteRadar(w, r.fig8) }); err != nil {
		return round{}, err
	}

	sims := noc.NewSimPool()
	for _, job := range b.jobs {
		tr.op++
		res, err := b.replayTraceJob(tr, job, sims)
		if err != nil {
			return round{}, fmt.Errorf("%v on %v: %w", job.Kernel.Kernel, job.Point, err)
		}
		r.traces = append(r.traces, res)
	}
	if err := tracedReport(tr, func(w io.Writer) error { return report.WriteTraceResults(w, r.traces) }); err != nil {
		return round{}, err
	}
	return b.check(r), nil
}

// replayTraceJob is one RunTraceExperiments job: trace generation,
// packetization, the simulation and DSENT pricing.
func (b *paperBench) replayTraceJob(tr *tracer, job core.TraceJob, sims *noc.SimPool) (core.TraceResult, error) {
	var events []trace.Event
	if _, err := tr.span("npb.gen", func() (err error) {
		events, err = npb.Generate(job.Kernel)
		return err
	}); err != nil {
		return core.TraceResult{}, err
	}
	net, tab, err := b.o.NetworkAndTable(job.Point)
	if err != nil {
		return core.TraceResult{}, err
	}
	var packets []noc.Packet
	if _, err := tr.span("trace.packetize", func() (err error) {
		packets, err = trace.Packetize(events, net.NumNodes(), trace.DefaultPacketize())
		return err
	}); err != nil {
		return core.TraceResult{}, err
	}
	tr.count("trace.packets", float64(len(packets)))
	stats, _, err := tracedRun(tr, sims, net, tab, noc.DefaultConfig(),
		func(s *noc.Sim) error { return s.InjectAll(packets) }, "noc.run")
	if err != nil {
		return core.TraceResult{}, err
	}
	var dynamic, static float64
	if _, err := tr.span("core.price_run", func() (err error) {
		dynamic, static, err = core.PriceRun(net, stats, b.o.DSENT)
		return err
	}); err != nil {
		return core.TraceResult{}, err
	}
	return core.TraceResult{
		Kernel: job.Kernel.Kernel, Point: job.Point, AvgLatencyClks: stats.AvgPacketLatencyClks,
		DynamicEnergyJ: dynamic, StaticPowerW: static, Stats: stats,
	}, nil
}

// check digests a round's results and compares its analytic figures with
// the paper goldens; a figure that disagrees counts as a failed operation.
func (b *paperBench) check(r paperResults) round {
	out := round{ops: len(b.jobs) + 4}
	d := newDigest()
	for _, p := range r.fig3 {
		d.add("fig3", p.LengthM, p.CLEAR[tech.Electronic], p.CLEAR[tech.Photonic], p.CLEAR[tech.Plasmonic], p.CLEAR[tech.HyPPI])
	}
	for _, e := range r.fig5 {
		d.add("fig5", e.Point, e.CLEAR, e.AvgLatencyClks, e.PowerW, e.AreaM2)
	}
	for _, p := range []optical.Projection{r.fig8.Electronic, r.fig8.HyPPI, r.fig8.Photonic} {
		d.add("fig8", p.Tech, p.EnergyPerBitJ, p.AreaM2, p.LatencyClks)
	}
	for _, t := range r.traces {
		d.add("fig6", t.Kernel, t.Point, t.Stats.Cycles, flitHops(t.Stats), t.AvgLatencyClks, t.DynamicEnergyJ, t.StaticPowerW)
	}
	out.digest = d.sum()
	for _, p := range b.golden.compare(r) {
		out.failed++
		out.problems = append(out.problems, "paper: "+p)
	}
	return out
}

// goldenFile is the part of internal/core/testdata/golden.json the paper
// workload checks: Fig. 3 CLEAR, Table III and the Fig. 5 best point.
type goldenFile struct {
	Fig3 []struct {
		LengthM float64            `json:"length_m"`
		CLEAR   map[string]float64 `json:"clear"`
	} `json:"fig3_link_clear"`
	Table3 []struct {
		Hops           int     `json:"hops"`
		CapabilityGbps float64 `json:"capability_gbps_per_node"`
		R              float64 `json:"r"`
		CLEAR          float64 `json:"clear"`
		AvgLatencyClks float64 `json:"avg_latency_clks"`
		StaticW        float64 `json:"static_w"`
	} `json:"table3_capability_r"`
	Fig5Best struct {
		Point string  `json:"point"`
		CLEAR float64 `json:"clear"`
	} `json:"fig5_best_design_point"`
}

// goldenFig3Index are the Fig. 3 sweep indices the golden file locks.
var goldenFig3Index = []int{0, 12, 25, 38, 50}

func readGolden(root string) (goldenFile, error) {
	var g goldenFile
	buf, err := os.ReadFile(filepath.Join(root, "internal", "core", "testdata", "golden.json"))
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(buf, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	if len(g.Fig3) != len(goldenFig3Index) || len(g.Table3) == 0 || g.Fig5Best.Point == "" {
		return g, fmt.Errorf("golden.json: unexpected shape")
	}
	return g, nil
}

// compare returns one message per figure that disagrees with the goldens.
func (g goldenFile) compare(r paperResults) []string {
	var bad []string
	for i, w := range g.Fig3 {
		idx := goldenFig3Index[i]
		if idx >= len(r.fig3) || !closeEnough(r.fig3[idx].LengthM, w.LengthM) {
			bad = append(bad, fmt.Sprintf("fig3 point %d missing or moved", idx))
			break
		}
		for name, v := range w.CLEAR {
			t, err := tech.ParseTechnology(name)
			if err != nil || !closeEnough(r.fig3[idx].CLEAR[t], v) {
				bad = append(bad, fmt.Sprintf("fig3 point %d %s CLEAR %v, golden %v", idx, name, r.fig3[idx].CLEAR[t], v))
			}
		}
	}
	for _, w := range g.Table3 {
		// Plain meshes fold the express technology away.
		p := core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: w.Hops}
		if w.Hops == 0 {
			p.Express = tech.Electronic
		}
		found := false
		for _, e := range r.fig5 {
			if e.Point != p {
				continue
			}
			found = true
			if !closeEnough(e.CapabilityGbpsPerNode, w.CapabilityGbps) || !closeEnough(e.R, w.R) ||
				!closeEnough(e.CLEAR, w.CLEAR) || !closeEnough(e.AvgLatencyClks, w.AvgLatencyClks) ||
				!closeEnough(e.StaticW, w.StaticW) {
				bad = append(bad, fmt.Sprintf("table3 hops=%d: C=%v R=%v CLEAR=%v differ from the goldens", w.Hops,
					e.CapabilityGbpsPerNode, e.R, e.CLEAR))
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("table3 point %v not explored", p))
		}
	}
	if len(r.fig5) > 0 {
		best := r.fig5[0]
		for _, e := range r.fig5[1:] {
			if e.CLEAR > best.CLEAR {
				best = e
			}
		}
		if best.Point.String() != g.Fig5Best.Point || !closeEnough(best.CLEAR, g.Fig5Best.CLEAR) {
			bad = append(bad, fmt.Sprintf("fig5 best %v (CLEAR %v), golden %s (%v)", best.Point, best.CLEAR,
				g.Fig5Best.Point, g.Fig5Best.CLEAR))
		}
	}
	return bad
}

// closeEnough is the golden test's tolerance: the pipeline is
// deterministic, the slack absorbs cross-platform floating point.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b)/math.Max(math.Abs(a), math.Abs(b)) < 1e-9
}

func (b *paperBench) layerMetrics() map[string]float64 { return nil }
