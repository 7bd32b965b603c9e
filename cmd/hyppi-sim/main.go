// Command hyppi-sim is the trace-driven cycle-accurate simulation harness
// behind Fig. 6 and Table V: it runs NPB kernel traces (built in, or read
// from a file produced by hyppi-trace) on the base electronic mesh and on
// express-augmented hybrids, reporting average packet latency and total
// dynamic energy per configuration.
//
// Usage:
//
//	hyppi-sim [-kernel FT|CG|MG|LU|all] [-express HyPPI] [-scale 0.0625] [-workers 0]
//	hyppi-sim -trace file.txt [-express Photonic]
//	hyppi-sim -pattern tornado [-express HyPPI]
//	hyppi-sim -pattern all -topology all
//	hyppi-sim -pattern uniform -grid 64x64
//	hyppi-sim -pattern tornado -energy
//	hyppi-sim -pattern uniform -faults
//	hyppi-sim -pattern uniform -faults -variant modetector,hybrid5x5 -csv
//	hyppi-sim -taskgraph ring-allreduce [-express HyPPI]
//	hyppi-sim -taskgraph all -topology all -csv
//	hyppi-sim -kernel FT -topology torus
//	hyppi-sim -pattern uniform -trace-out trace.json -probe-window 200
//	hyppi-sim -cpuprofile cpu.out -memprofile mem.out
//	hyppi-sim -blockprofile block.out -mutexprofile mutex.out
//
// With -pattern, hyppi-sim runs a synthetic traffic saturation sweep
// instead of traces: the named registry pattern (or "all") is swept over
// offered load on the -grid geometry (default 8×8; 64×64 and beyond stay
// interactive — routing, traffic and the kernel are all O(n) in nodes),
// mesh versus express hybrids, and the latency-knee saturation throughput
// is reported per configuration.
//
// Adding -energy prices every drained point of that sweep with the
// activity-based energy subsystem (internal/energy): measured fJ/bit, the
// simulated CLEAR, and the latency–energy Pareto frontier across the
// competing design points of each (topology, pattern) scenario.
//
// With -taskgraph, hyppi-sim runs closed-loop operator graphs instead
// of open-loop traffic: each registry generator (reduce trees, ring and
// tree allreduce, attention all-gather, MoE all-to-all, pipeline
// microbatches — or "all") builds a message DAG whose packets inject
// only when their dependencies' tails eject, and the end-to-end makespan
// is scored against the contention-free critical-path bound. On the mesh
// the express hop ladder competes; -topology sweeps plain fabrics per
// kind; -csv emits the dataset instead of the aligned table.
//
// Adding -trace-out runs the instrumented telemetry sweep instead
// (internal/telemetry): each design point × pattern cell runs once at a
// fixed load with deterministic sampled packet tracing and windowed
// time-series probes attached, the sampled spans are written to the named
// file as Chrome trace-event JSON (loadable in Perfetto), and span tables
// plus probe heatmaps print to stdout (-csv emits the probe census
// instead; -probe-window sets the window length in cycles).
//
// Adding -faults instead runs the reliability sweep (internal/fault):
// seed-derived link-failure schedules at each rate of a ladder, adaptive
// reroute on the surviving fabric, BER-driven retransmission under the
// device variant's error floor and thermal drift, reporting availability
// and CLEAR degradation per (topology, design point, variant, pattern)
// cell. -variant picks the dsent device-variant registry entries to
// sweep; -csv emits the dataset instead of the aligned table.
//
// -topology selects the topology kind (see internal/topology). In
// pattern mode it takes a comma list or "all" and sweeps the full
// topology × pattern × load matrix (plain fabrics, one per kind) instead
// of the express hop ladder; in trace mode it takes a single kind, and
// non-mesh kinds collapse the hop ladder to the plain fabric.
//
// The kernel × hop-length sweep runs as one batch of independent
// simulations on a bounded worker pool (-workers 0 sizes it to GOMAXPROCS);
// results are identical to a serial sweep whatever the pool size.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dsent"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/taskgraph"
	"repro/internal/tech"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// sweepHops are the express hop lengths of the Fig. 6 comparison.
var sweepHops = []int{0, 3, 5, 15}

// meshLadder reports whether a kind selection is the lone mesh, where the
// express hop ladder competes instead of one plain fabric per kind.
func meshLadder(kinds []topology.Kind) bool {
	return len(kinds) == 1 && kinds[0] == topology.Mesh
}

// sweepPoints is the design-point axis of the cycle-accurate sweeps. On
// the lone mesh kind it is the grid's analog of the paper's hop ladder:
// plain mesh, the short and mid hops, and the W−1 row closure (the
// counterpart of hops=15 on the 16-wide mesh), dropping rungs the width
// cannot host and duplicates (e.g. W = 4, where 3 already is the
// closure). Other kinds take no express channels: one plain electronic
// fabric per kind.
func sweepPoints(kinds []topology.Kind, exTech tech.Technology, width int) []core.DesignPoint {
	if !meshLadder(kinds) {
		return []core.DesignPoint{{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}}
	}
	var points []core.DesignPoint
	seen := map[int]bool{}
	for _, h := range []int{0, 3, 5, width - 1} {
		if h < 0 || h >= width || seen[h] {
			continue
		}
		seen[h] = true
		ex := exTech
		if h == 0 {
			ex = tech.Electronic // plain mesh: express tech is unused
		}
		points = append(points, core.DesignPoint{Base: tech.Electronic, Express: ex, Hops: h})
	}
	return points
}

// Flag usage strings are package level so the usage test can assert every
// registered pattern and kind name is discoverable from -h.
var (
	patternUsage = "synthetic pattern saturation sweep instead of traces: a registry name (" +
		strings.Join(traffic.Names(), ", ") + ") or \"all\""
	topologyUsage = "topology kind: " + strings.Join(topology.Names(), ", ") +
		" (comma list or \"all\" in pattern mode; single kind for traces)"
	variantUsage = "with -faults: device-variant registry entries to sweep (" +
		strings.Join(variantNames(), ", ") + "; comma list or \"all\")"
	taskgraphUsage = "closed-loop operator-graph makespan sweep: a registry generator (" +
		strings.Join(taskgraph.Names(), ", ") + ") or \"all\""
)

// variantNames lists the dsent device-variant registry with the baseline's
// empty name spelled out for the command line.
func variantNames() []string {
	var out []string
	for _, v := range dsent.Variants() {
		name := v.Name
		if name == dsent.VariantBaseline {
			name = "baseline"
		}
		out = append(out, name)
	}
	return out
}

// parseVariants resolves a -variant spec against the registry, accepting
// "baseline" as an alias for the registry's empty baseline name.
func parseVariants(spec string) ([]string, error) {
	if spec == "all" {
		var out []string
		for _, v := range dsent.Variants() {
			out = append(out, v.Name)
		}
		return out, nil
	}
	var out []string
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "baseline" {
			name = dsent.VariantBaseline
		}
		if _, err := dsent.LookupVariant(name); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}

func main() {
	os.Exit(run())
}

// run holds main's body so deferred profile flushing survives error exits.
func run() int {
	kernel := flag.String("kernel", "all", "kernel: FT, CG, MG, LU or all")
	traceFile := flag.String("trace", "", "external trace file (overrides -kernel)")
	pattern := flag.String("pattern", "", patternUsage)
	taskgraphFlag := flag.String("taskgraph", "", taskgraphUsage)
	topoFlag := flag.String("topology", "mesh", topologyUsage)
	grid := flag.String("grid", "8x8", "pattern-sweep router grid as WxH (e.g. 64x64)")
	energySweep := flag.Bool("energy", false,
		"with -pattern: measured energy accounting per sweep point "+
			"(fJ/bit, simulated CLEAR, latency–energy Pareto frontier)")
	faultSweep := flag.Bool("faults", false,
		"with -pattern: reliability sweep over a link-failure rate ladder "+
			"(availability, drops, retransmissions, CLEAR degradation)")
	variantFlag := flag.String("variant", "all", variantUsage)
	csvOut := flag.Bool("csv", false, "with -faults: emit CSV instead of the aligned table")
	express := flag.String("express", "HyPPI", "express link technology: Electronic, Photonic or HyPPI")
	scale := flag.Float64("scale", 1.0/16, "NPB volume scale")
	iters := flag.Int("iterations", 0, "iteration count (0 = kernel default)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	traceOut := flag.String("trace-out", "",
		"with -pattern: run the instrumented telemetry sweep, write sampled packet "+
			"traces as Chrome trace-event JSON to this file (loadable in Perfetto) "+
			"and print span tables and probe heatmaps")
	probeWindow := flag.Int64("probe-window", 0,
		"with -trace-out: time-series probe window in cycles (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.StartAll(prof.Config{
		CPUPath: *cpuprofile, MemPath: *memprofile,
		BlockPath: *blockprofile, MutexPath: *mutexprofile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
		return 1
	}
	defer stopProf()

	exTech, err := tech.ParseTechnology(*express)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
		return 1
	}
	o := core.DefaultOptions()
	pool := runner.Config{Workers: *workers}

	kinds, err := topology.ParseKinds(*topoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
		return 1
	}

	if *taskgraphFlag != "" {
		if *pattern != "" {
			fmt.Fprintln(os.Stderr, "hyppi-sim: -taskgraph and -pattern are mutually exclusive")
			return 1
		}
		w, h, err := topology.ParseGrid(*grid)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
			return 1
		}
		o.Topology.Width, o.Topology.Height = w, h
		if err := runTaskGraphSweep(kinds, *taskgraphFlag, exTech, *csvOut, o, pool); err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
			return 1
		}
		return 0
	}
	if *pattern != "" {
		w, h, err := topology.ParseGrid(*grid)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
			return 1
		}
		o.Topology.Width, o.Topology.Height = w, h
		switch {
		case *traceOut != "":
			if len(kinds) != 1 {
				err = fmt.Errorf("-trace-out takes a single -topology kind")
			} else {
				err = runTelemetry(kinds[0], *pattern, *traceOut, *probeWindow,
					exTech, *csvOut, o, pool)
			}
		case *faultSweep:
			err = runFaultSweep(kinds, *pattern, *variantFlag, exTech, *csvOut, o, pool)
		case *energySweep:
			err = runEnergySweep(kinds, *pattern, exTech, o, pool)
		default:
			err = runPatternSweep(kinds, *pattern, exTech, o, pool)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
			return 1
		}
		return 0
	}
	if *energySweep {
		fmt.Fprintln(os.Stderr, "hyppi-sim: -energy needs -pattern (it prices the pattern sweep)")
		return 1
	}
	if *faultSweep {
		fmt.Fprintln(os.Stderr, "hyppi-sim: -faults needs -pattern (it degrades the pattern sweep)")
		return 1
	}

	// Trace modes take a single kind; non-mesh kinds have no express
	// axis, so the hop ladder collapses to the plain fabric.
	if len(kinds) != 1 {
		fmt.Fprintln(os.Stderr, "hyppi-sim: trace mode takes a single -topology kind")
		return 1
	}
	o = o.WithKind(kinds[0])
	hops := sweepHops
	if kinds[0] != topology.Mesh {
		hops = []int{0}
	}

	if *traceFile != "" {
		if err := runExternal(*traceFile, exTech, o, hops, pool); err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
			return 1
		}
		return 0
	}

	kernels := npb.Kernels
	if *kernel != "all" {
		k, err := npb.ParseKernel(*kernel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
			return 1
		}
		kernels = []npb.Kernel{k}
	}

	// One job per kernel × hop length, simulated concurrently.
	var jobs []core.TraceJob
	for _, k := range kernels {
		cfg := npb.DefaultConfig(k)
		cfg.Scale = *scale
		cfg.Iterations = *iters
		for _, h := range hops {
			jobs = append(jobs, core.TraceJob{Kernel: cfg, Point: core.DesignPoint{
				Base: tech.Electronic, Express: exTech, Hops: h}})
		}
	}
	results, err := core.RunTraceExperiments(context.Background(), jobs, o, noc.DefaultConfig(), pool)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
		return 1
	}

	if len(hops) == 1 {
		fmt.Printf("Fig. 6 analog — average packet latency (clks), topology = %v\n", kinds[0])
		fmt.Printf("%-8s %-12s %-18s\n", "kernel", "latency", "dynamic energy")
		for ki, k := range kernels {
			res := results[ki]
			fmt.Printf("%-8s %-12.2f %-18s\n", k, res.AvgLatencyClks, core.FormatEnergy(res.DynamicEnergyJ))
		}
		return 0
	}
	fmt.Printf("Fig. 6 — average packet latency (clks), express = %v\n", exTech)
	fmt.Printf("%-8s %-12s %-12s %-12s %-12s %-18s\n",
		"kernel", "mesh", "hops=3", "hops=5", "hops=15", "best speedup")
	for ki, k := range kernels {
		lat := make([]float64, len(hops))
		energy := make([]float64, len(hops))
		for i := range hops {
			res := results[ki*len(hops)+i]
			lat[i] = res.AvgLatencyClks
			energy[i] = res.DynamicEnergyJ
		}
		best := lat[0] / min3(lat[1], lat[2], lat[3])
		fmt.Printf("%-8s %-12.2f %-12.2f %-12.2f %-12.2f %.2fx\n",
			k, lat[0], lat[1], lat[2], lat[3], best)
		fmt.Printf("%-8s %-12s %-12s %-12s %-12s (dynamic energy, Table V style)\n",
			"", core.FormatEnergy(energy[0]), core.FormatEnergy(energy[1]),
			core.FormatEnergy(energy[2]), core.FormatEnergy(energy[3]))
	}
	return 0
}

// runEnergySweep prices the pattern sweep with the activity-based energy
// subsystem: on the mesh the express hop ladder competes, on other (or
// multiple) kinds one plain fabric per kind does. Each drained point
// reports measured fJ/bit and the simulated CLEAR; each (topology,
// pattern) scenario gets its latency–energy Pareto frontier.
func runEnergySweep(kinds []topology.Kind, spec string, exTech tech.Technology,
	o core.Options, pool runner.Config) error {
	patterns, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	sc := core.DefaultEnergySweep()
	results, err := core.EnergySweep(context.Background(), kinds,
		sweepPoints(kinds, exTech, o.Topology.Width), patterns, sc, o, pool)
	if err != nil {
		return err
	}
	fmt.Printf("%d×%d measured latency–energy sweep, express = %v, rates = %v\n",
		o.Topology.Width, o.Topology.Height, exTech, sc.Rates)
	fmt.Println("(fJ/bit = measured activity energy + static power integrated over the run;")
	fmt.Println(" '*' marks the latency–energy Pareto frontier of the scenario)")
	fmt.Print(report.EnergyTable(results))
	fmt.Println("\nPareto frontier per (topology, pattern) scenario")
	fmt.Print(report.ParetoTable(results))
	return nil
}

// runFaultSweep degrades the pattern sweep with the fault and variation
// layer: each (topology, design point, device variant, pattern) cell runs
// the fault-rate ladder — seed-derived link-failure schedules, adaptive
// reroute, BER-driven retransmission under thermal drift — and reports
// availability, explicit loss accounting, and CLEAR degradation relative
// to the cell's healthy point.
func runFaultSweep(kinds []topology.Kind, spec, variantSpec string, exTech tech.Technology,
	csvOut bool, o core.Options, pool runner.Config) error {
	patterns, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	variants, err := parseVariants(variantSpec)
	if err != nil {
		return err
	}
	sc := core.DefaultFaultSweep()
	results, err := core.FaultSweep(context.Background(), kinds,
		sweepPoints(kinds, exTech, o.Topology.Width), variants, patterns, sc, o, pool)
	if err != nil {
		return err
	}
	if csvOut {
		return report.WriteFaultSweep(os.Stdout, results)
	}
	fmt.Printf("%d×%d reliability sweep, express = %v, fault rates = %v, %d epochs\n",
		o.Topology.Width, o.Topology.Height, exTech, sc.Rates, sc.Epochs)
	fmt.Println("(avail = fraction of (src,dst) pairs still connected; CLEAR× = CLEAR vs the healthy point)")
	fmt.Print(report.FaultTable(results))
	return nil
}

// runTaskGraphSweep replays the named closed-loop operator graphs on the
// selected fabrics: on the lone mesh kind the express hop ladder competes
// (the Fig. 6 axis, now scored by end-to-end makespan); otherwise one
// plain fabric per kind. Each cell reports the simulated makespan, the
// contention-free critical-path bound, and their ratio (stretch) — the
// congestion-feedback figure of merit.
func runTaskGraphSweep(kinds []topology.Kind, spec string, exTech tech.Technology,
	csvOut bool, o core.Options, pool runner.Config) error {
	gens, err := taskgraph.ParseGenerators(spec)
	if err != nil {
		return err
	}
	sc := core.DefaultTaskGraphSweep()
	points := sweepPoints(kinds, exTech, o.Topology.Width)
	var results []core.TaskGraphResult
	for _, k := range kinds {
		rs, err := core.TaskGraphSweep(context.Background(), points, gens, sc, o.WithKind(k), pool)
		if err != nil {
			return err
		}
		results = append(results, rs...)
	}
	if csvOut {
		return report.WriteTaskGraphSweep(os.Stdout, results)
	}
	fmt.Printf("%d×%d closed-loop task-graph sweep, express = %v, payload %d flits, compute %d clks\n",
		o.Topology.Width, o.Topology.Height, exTech, sc.Gen.SizeFlits, sc.Gen.ComputeClks)
	fmt.Println("(bound = contention-free critical path; stretch = makespan/bound, 1.00 = never delayed)")
	fmt.Print(report.TaskGraphTable(results))
	return nil
}

// runPatternSweep sweeps one registry pattern (or all of them) over
// offered load on the -grid geometry — on the lone mesh kind the plain
// electronic mesh against the express hop ladder, otherwise one plain
// electronic fabric per selected kind — printing each configuration's
// load-latency curve and its latency-knee saturation throughput (see
// noc.DetectSaturation).
func runPatternSweep(kinds []topology.Kind, spec string, exTech tech.Technology, o core.Options, pool runner.Config) error {
	patterns, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	sc := core.DefaultEnergySweep()
	results, err := core.PatternSweep(context.Background(), kinds,
		sweepPoints(kinds, exTech, o.Topology.Width), patterns, sc, o, pool)
	if err != nil {
		return err
	}
	if meshLadder(kinds) {
		fmt.Printf("%d×%d pattern saturation sweep, express = %v, rates = %v\n",
			o.Topology.Width, o.Topology.Height, exTech, sc.Rates)
	} else {
		fmt.Printf("%d×%d topology × pattern saturation sweep, rates = %v\n",
			o.Topology.Width, o.Topology.Height, sc.Rates)
	}
	for _, r := range results {
		if meshLadder(kinds) {
			fmt.Printf("\n%v / %s\n", r.Point, r.Pattern)
		} else {
			fmt.Printf("\n%v / %s\n", r.Kind, r.Pattern)
		}
		for _, p := range r.Curve {
			if p.Saturated {
				fmt.Printf("  rate %-6.3g saturated (failed to drain)\n", p.InjectionRate)
				continue
			}
			fmt.Printf("  rate %-6.3g avg %-8.1f p99 %.1f\n",
				p.InjectionRate, p.AvgLatencyClks, p.P99LatencyClks)
		}
	}
	fmt.Println("\nSaturation summary (latency-knee rule: avg > 3x zero-load, or no drain)")
	fmt.Print(report.SaturationTable(results))
	return nil
}

// runTelemetry is the instrumented variant of the pattern sweep: one run
// per design point × pattern at the telemetry load with sampled packet
// tracing and windowed probes attached, the Chrome trace-event export
// written to traceOut, and the probe census printed as tables and text
// heatmaps (or CSV with -csv). On the mesh the express hop ladder
// competes; other kinds run the plain fabric.
func runTelemetry(kind topology.Kind, spec, traceOut string, probeWindow int64,
	exTech tech.Technology, csvOut bool, o core.Options, pool runner.Config) error {
	patterns, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	o = o.WithKind(kind)
	sc := core.DefaultTelemetrySweep()
	if probeWindow > 0 {
		sc.Telemetry.ProbeWindowClks = probeWindow
	}
	results, err := core.TelemetrySweep(context.Background(),
		sweepPoints([]topology.Kind{kind}, exTech, o.Topology.Width), patterns, sc, o, pool)
	if err != nil {
		return err
	}

	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, core.ChromeProcesses(results)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	if csvOut {
		return report.WriteTelemetrySweep(os.Stdout, results)
	}
	fmt.Printf("%d×%d telemetry sweep @ rate %.3g, sample %.3g, window %d clks\n",
		o.Topology.Width, o.Topology.Height, sc.Rate,
		sc.Telemetry.SampleRate, sc.Telemetry.ProbeWindowClks)
	for _, r := range results {
		fmt.Printf("\n=== %s ===\n", r.Label())
		if r.Saturated {
			fmt.Println("saturated (failed to drain); telemetry covers the run up to the cap")
		}
		fmt.Printf("packets %d, sampled %d (%d spans recorded)\n",
			r.Trace.TotalPackets, r.Trace.SampledPackets, len(r.Trace.Spans))
		fmt.Print(report.SpanTable(r.Trace, 15))
		p := r.Probes
		fmt.Printf("\nprobe timeline (%d windows of %d clks):\n", p.Windows(), p.WindowClks())
		fmt.Print(report.ProbeTimeline(p))
		net, _, err := o.NetworkAndTable(r.Point)
		if err != nil {
			return err
		}
		if peak := report.PeakWindow(p); peak >= 0 {
			fmt.Print(report.ProbeOccupancyGrid(p, net, peak))
			fmt.Print(report.ProbeLinkHeatmap(p, net, 12))
		}
	}
	fmt.Printf("\nwrote Chrome trace JSON for %d cells to %s (open in Perfetto or chrome://tracing)\n",
		len(results), traceOut)
	return nil
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

// runExternal replays a trace file on the selected topology's hop ladder
// (mesh and hops=3/5/15 hybrids; plain fabric only for non-mesh kinds),
// one concurrent simulation per hop length (the parsed events are only
// read; networks and tables come from the process-wide cache).
func runExternal(path string, exTech tech.Technology, o core.Options, hops []int, pool runner.Config) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s: %d messages, %d bytes\n", path, len(events), trace.TotalBytes(events))
	type hopResult struct {
		latency  float64
		dynamicJ float64
		staticW  float64
	}
	results, err := runner.Map(context.Background(), len(hops), pool,
		func(_ context.Context, i int) (hopResult, error) {
			point := core.DesignPoint{Base: tech.Electronic, Express: exTech, Hops: hops[i]}
			net, tab, err := o.NetworkAndTable(point)
			if err != nil {
				return hopResult{}, err
			}
			packets, err := trace.Packetize(events, net.NumNodes(), trace.DefaultPacketize())
			if err != nil {
				return hopResult{}, err
			}
			sim, err := noc.New(net, tab, noc.DefaultConfig())
			if err != nil {
				return hopResult{}, err
			}
			if err := sim.InjectAll(packets); err != nil {
				return hopResult{}, err
			}
			stats, err := sim.Run()
			if err != nil {
				return hopResult{}, err
			}
			dynamic, static, err := core.PriceRun(net, stats, o.DSENT)
			if err != nil {
				return hopResult{}, err
			}
			return hopResult{latency: stats.AvgPacketLatencyClks, dynamicJ: dynamic, staticW: static}, nil
		})
	if err != nil {
		return err
	}
	for i, h := range hops {
		r := results[i]
		fmt.Printf("hops=%-3d latency %-10.2f dynamic %-12s static %.3f W\n",
			h, r.latency, core.FormatEnergy(r.dynamicJ), r.staticW)
	}
	return nil
}
