// Command hyppi-sim is the trace-driven cycle-accurate simulation harness
// behind Fig. 6 and Table V: it runs NPB kernel traces (built in, or read
// from a file produced by hyppi-trace) on the base electronic mesh and on
// express-augmented hybrids, reporting average packet latency and total
// dynamic energy per configuration.
//
// hyppi-sim is the repository's one cycle-accurate front end; every
// simulated figure and extension sweep is a mode of it.
//
// Usage:
//
//	hyppi-sim [-kernel FT|CG|MG|LU|all] [-express HyPPI] [-scale 0.0625] [-workers 0]
//	hyppi-sim -trace file.txt [-express Photonic]
//	hyppi-sim -pattern tornado [-express HyPPI]
//	hyppi-sim -pattern all -topology all
//	hyppi-sim -pattern uniform -grid 64x64 -csv
//	hyppi-sim -pattern tornado -energy [-csv]
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
// interactive — routing, traffic and the kernel are all linear in nodes
// plus links on the monotone kinds),
// mesh versus express hybrids, and the latency-knee saturation throughput
// is reported per configuration (-csv emits the dataset instead).
//
// Adding -energy prices every drained point of that sweep with the
// activity-based energy subsystem (internal/energy): measured fJ/bit, the
// simulated CLEAR, and the latency–energy Pareto frontier across the
// competing design points of each (topology, pattern) scenario (-csv
// emits the dataset instead).
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
// Each mode reads only its own flags: a mode-specific flag set on the
// command line for a mode that would ignore it (say -energy with
// -taskgraph, or -grid with a trace) is rejected with an error naming it.
//
// The kernel × hop-length sweep runs as one batch of independent
// simulations on a bounded worker pool (-workers 0 sizes it to GOMAXPROCS);
// results are identical to a serial sweep whatever the pool size.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
		" (comma list or \"all\" in pattern and task-graph modes; single kind for traces)"
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
// "baseline" as an alias for the registry's empty baseline name. Duplicates
// are dropped, keeping the first occurrence.
func parseVariants(spec string) ([]string, error) {
	if spec == "all" {
		var out []string
		for _, v := range dsent.Variants() {
			out = append(out, v.Name)
		}
		return out, nil
	}
	var out []string
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "baseline" {
			name = dsent.VariantBaseline
		}
		if _, err := dsent.LookupVariant(name); err != nil {
			return nil, err
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out, nil
}

// errIgnoredFlag marks a mode-specific flag set on the command line for a
// mode that would silently ignore it.
var errIgnoredFlag = errors.New("flag ignored by the selected mode")

// modeFlags lists the mode-specific flags each mode reads. A flag missing
// from every list (-topology, -express, -workers, the profiles) applies
// to all modes.
var modeFlags = map[string][]string{
	"-kernel":             {"kernel", "scale", "iterations"},
	"-trace":              {"trace"},
	"-pattern":            {"pattern", "grid", "csv"},
	"-pattern -energy":    {"pattern", "energy", "grid", "csv"},
	"-pattern -faults":    {"pattern", "faults", "variant", "grid", "csv"},
	"-pattern -trace-out": {"pattern", "trace-out", "probe-window", "grid", "csv"},
	"-taskgraph":          {"taskgraph", "grid", "csv"},
}

// selectMode picks the mode from the flags given on the command line —
// -taskgraph over -pattern over -trace, and under -pattern -trace-out
// over -faults over -energy — and rejects any other mode-specific flag
// given, in flag-name order. A flag set to "" or false counts as not
// given.
func selectMode(fs *flag.FlagSet) (string, error) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		v := f.Value.String()
		set[f.Name] = v != "" && v != "false"
	})
	mode := "-kernel"
	switch {
	case set["taskgraph"]:
		mode = "-taskgraph"
	case set["pattern"] && set["trace-out"]:
		mode = "-pattern -trace-out"
	case set["pattern"] && set["faults"]:
		mode = "-pattern -faults"
	case set["pattern"] && set["energy"]:
		mode = "-pattern -energy"
	case set["pattern"]:
		mode = "-pattern"
	case set["trace"]:
		mode = "-trace"
	}
	specific, reads := map[string]bool{}, map[string]bool{}
	for m, names := range modeFlags {
		for _, name := range names {
			specific[name] = true
			reads[name] = reads[name] || m == mode
		}
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && set[f.Name] && specific[f.Name] && !reads[f.Name] {
			err = fmt.Errorf("%w: -%s in %s mode", errIgnoredFlag, f.Name, mode)
		}
	})
	return mode, err
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-sim:", err)
		os.Exit(1)
	}
}

// run parses args, checks them against the selected mode and runs it,
// writing the report to stdout; usage and flag errors go to stderr.
// Deferred profile flushing survives error returns.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hyppi-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "all", "kernel: FT, CG, MG, LU or all")
	traceFile := fs.String("trace", "", "replay an external trace file instead of the built-in kernels")
	pattern := fs.String("pattern", "", patternUsage)
	taskgraphFlag := fs.String("taskgraph", "", taskgraphUsage)
	topoFlag := fs.String("topology", "mesh", topologyUsage)
	grid := fs.String("grid", "8x8", "pattern and task-graph router grid as WxH (e.g. 64x64)")
	fs.Bool("energy", false,
		"with -pattern: measured energy accounting per sweep point "+
			"(fJ/bit, simulated CLEAR, latency–energy Pareto frontier)")
	fs.Bool("faults", false,
		"with -pattern: reliability sweep over a link-failure rate ladder "+
			"(availability, drops, retransmissions, CLEAR degradation)")
	variantFlag := fs.String("variant", "all", variantUsage)
	csvOut := fs.Bool("csv", false, "emit the sweep's dataset as CSV instead of the aligned table")
	express := fs.String("express", "HyPPI", "express link technology: Electronic, Photonic or HyPPI")
	scale := fs.Float64("scale", 1.0/16, "NPB volume scale")
	iters := fs.Int("iterations", 0, "iteration count (0 = kernel default)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	traceOut := fs.String("trace-out", "",
		"with -pattern: run the instrumented telemetry sweep, write sampled packet "+
			"traces as Chrome trace-event JSON to this file (loadable in Perfetto) "+
			"and print span tables and probe heatmaps")
	probeWindow := fs.Int64("probe-window", 0,
		"with -trace-out: time-series probe window in cycles (0 = default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := fs.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	mutexprofile := fs.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	mode, err := selectMode(fs)
	if err != nil {
		return err
	}
	if *probeWindow < 0 {
		return fmt.Errorf("-probe-window %d: must be ≥ 0 (0 = default)", *probeWindow)
	}

	stopProf, err := prof.StartAll(prof.Config{
		CPUPath: *cpuprofile, MemPath: *memprofile,
		BlockPath: *blockprofile, MutexPath: *mutexprofile,
	})
	if err != nil {
		return err
	}
	defer stopProf()

	exTech, err := tech.ParseTechnology(*express)
	if err != nil {
		return err
	}
	kinds, err := topology.ParseKinds(*topoFlag)
	if err != nil {
		return err
	}
	e := env{w: stdout, kinds: kinds, ex: exTech, o: core.DefaultOptions(),
		pool: runner.Config{Workers: *workers}, csv: *csvOut}

	switch mode {
	case "-kernel":
		return e.kernels(*kernel, *scale, *iters)
	case "-trace":
		return e.replay(*traceFile)
	}
	w, h, err := topology.ParseGrid(*grid)
	if err != nil {
		return err
	}
	e.o.Topology.Width, e.o.Topology.Height = w, h
	switch mode {
	case "-taskgraph":
		return e.taskGraphSweep(*taskgraphFlag)
	case "-pattern -trace-out":
		return e.telemetry(*pattern, *traceOut, *probeWindow)
	case "-pattern -faults":
		return e.faultSweep(*pattern, *variantFlag)
	case "-pattern -energy":
		return e.energySweep(*pattern)
	default:
		return e.patternSweep(*pattern)
	}
}

// env is what every mode shares: the report writer, the -topology kinds,
// the -express technology, the options (grid already applied), the worker
// pool and the -csv switch.
type env struct {
	w     io.Writer
	kinds []topology.Kind
	ex    tech.Technology
	o     core.Options
	pool  runner.Config
	csv   bool
}

// points is the sweep modes' design-point axis on the selected kinds.
func (e env) points() []core.DesignPoint {
	return sweepPoints(e.kinds, e.ex, e.o.Topology.Width)
}

// traceKind resolves the trace modes' single topology kind into its
// options and hop ladder: the Fig. 6 ladder on the mesh, the plain fabric
// alone on other kinds (they have no express axis).
func (e env) traceKind() (core.Options, []int, error) {
	if len(e.kinds) != 1 {
		return core.Options{}, nil, fmt.Errorf("trace modes take a single -topology kind")
	}
	o := e.o.WithKind(e.kinds[0])
	if e.kinds[0] != topology.Mesh {
		return o, []int{0}, nil
	}
	return o, sweepHops, nil
}

// kernels runs the Fig. 6 / Table V batch: one job per NPB kernel × hop
// length, simulated concurrently, printed as the latency table with the
// dynamic energy beneath each row.
func (e env) kernels(spec string, scale float64, iters int) error {
	o, hops, err := e.traceKind()
	if err != nil {
		return err
	}
	kernels := npb.Kernels
	if spec != "all" {
		k, err := npb.ParseKernel(spec)
		if err != nil {
			return err
		}
		kernels = []npb.Kernel{k}
	}
	var jobs []core.TraceJob
	for _, k := range kernels {
		cfg := npb.DefaultConfig(k)
		cfg.Scale = scale
		cfg.Iterations = iters
		for _, h := range hops {
			jobs = append(jobs, core.TraceJob{Kernel: cfg, Point: core.DesignPoint{
				Base: tech.Electronic, Express: e.ex, Hops: h}})
		}
	}
	results, err := core.RunTraceExperiments(context.Background(), jobs, o, noc.DefaultConfig(), e.pool)
	if err != nil {
		return err
	}

	if len(hops) == 1 {
		fmt.Fprintf(e.w, "Fig. 6 analog — average packet latency (clks), topology = %v\n", e.kinds[0])
		fmt.Fprintf(e.w, "%-8s %-12s %-18s\n", "kernel", "latency", "dynamic energy")
		for ki, k := range kernels {
			res := results[ki]
			fmt.Fprintf(e.w, "%-8s %-12.2f %-18s\n", k, res.AvgLatencyClks, core.FormatEnergy(res.DynamicEnergyJ))
		}
		return nil
	}
	fmt.Fprintf(e.w, "Fig. 6 — average packet latency (clks), express = %v\n", e.ex)
	fmt.Fprintf(e.w, "%-8s %-12s %-12s %-12s %-12s %-18s\n",
		"kernel", "mesh", "hops=3", "hops=5", "hops=15", "best speedup")
	for ki, k := range kernels {
		r := results[ki*len(hops) : (ki+1)*len(hops)]
		best := r[0].AvgLatencyClks / min(r[1].AvgLatencyClks, r[2].AvgLatencyClks, r[3].AvgLatencyClks)
		fmt.Fprintf(e.w, "%-8s %-12.2f %-12.2f %-12.2f %-12.2f %.2fx\n",
			k, r[0].AvgLatencyClks, r[1].AvgLatencyClks, r[2].AvgLatencyClks, r[3].AvgLatencyClks, best)
		fmt.Fprintf(e.w, "%-8s %-12s %-12s %-12s %-12s (dynamic energy, Table V style)\n",
			"", core.FormatEnergy(r[0].DynamicEnergyJ), core.FormatEnergy(r[1].DynamicEnergyJ),
			core.FormatEnergy(r[2].DynamicEnergyJ), core.FormatEnergy(r[3].DynamicEnergyJ))
	}
	return nil
}

// replay runs a trace file on the selected kind's hop ladder, one
// concurrent simulation per hop length: core.RunTraceExperiments jobs
// carrying the parsed events.
func (e env) replay(path string) error {
	o, hops, err := e.traceKind()
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(e.w, "trace %s: %d messages, %d bytes\n", path, len(events), trace.TotalBytes(events))
	jobs := make([]core.TraceJob, len(hops))
	for i, h := range hops {
		jobs[i] = core.TraceJob{Events: events, Point: core.DesignPoint{Base: tech.Electronic, Express: e.ex, Hops: h}}
	}
	results, err := core.RunTraceExperiments(context.Background(), jobs, o, noc.DefaultConfig(), e.pool)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(e.w, "hops=%-3d latency %-10.2f dynamic %-12s static %.3f W\n",
			r.Point.Hops, r.AvgLatencyClks, core.FormatEnergy(r.DynamicEnergyJ), r.StaticPowerW)
	}
	return nil
}

// patternSweep sweeps one registry pattern (or all of them) over offered
// load on the -grid geometry — on the lone mesh kind the plain electronic
// mesh against the express hop ladder, otherwise one plain electronic
// fabric per selected kind — printing each configuration's load-latency
// curve and its latency-knee saturation throughput (the ladder's knee rule,
// set on every core.EnergySweepResult).
func (e env) patternSweep(spec string) error {
	patterns, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	sc := core.DefaultEnergySweep()
	results, err := core.PatternSweep(context.Background(), e.kinds, e.points(), patterns, sc, e.o, e.pool)
	if err != nil {
		return err
	}
	if e.csv {
		return report.WritePatternSweep(e.w, results)
	}
	ladder := meshLadder(e.kinds)
	if ladder {
		fmt.Fprintf(e.w, "%d×%d pattern saturation sweep, express = %v, rates = %v\n",
			e.o.Topology.Width, e.o.Topology.Height, e.ex, sc.Rates)
	} else {
		fmt.Fprintf(e.w, "%d×%d topology × pattern saturation sweep, rates = %v\n",
			e.o.Topology.Width, e.o.Topology.Height, sc.Rates)
	}
	for _, r := range results {
		if ladder {
			fmt.Fprintf(e.w, "\n%v / %s\n", r.Point, r.Pattern)
		} else {
			fmt.Fprintf(e.w, "\n%v / %s\n", r.Kind, r.Pattern)
		}
		for _, p := range r.Points {
			if p.Saturated {
				fmt.Fprintf(e.w, "  rate %-6.3g saturated (failed to drain)\n", p.Rate)
				continue
			}
			fmt.Fprintf(e.w, "  rate %-6.3g avg %-8.1f p99 %.1f\n",
				p.Rate, p.AvgLatencyClks, p.P99LatencyClks)
		}
	}
	fmt.Fprintln(e.w, "\nSaturation summary (latency-knee rule: avg > 3x zero-load, or no drain)")
	fmt.Fprint(e.w, report.SaturationTable(results))
	return nil
}

// energySweep prices the pattern sweep with the activity-based energy
// subsystem: each drained point reports measured fJ/bit and the simulated
// CLEAR; each (topology, pattern) scenario gets its latency–energy Pareto
// frontier.
func (e env) energySweep(spec string) error {
	patterns, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	sc := core.DefaultEnergySweep()
	results, err := core.EnergySweep(context.Background(), e.kinds, e.points(), patterns, sc, e.o, e.pool)
	if err != nil {
		return err
	}
	if e.csv {
		return report.WriteEnergySweep(e.w, results)
	}
	fmt.Fprintf(e.w, "%d×%d measured latency–energy sweep, express = %v, rates = %v\n",
		e.o.Topology.Width, e.o.Topology.Height, e.ex, sc.Rates)
	fmt.Fprintln(e.w, "(fJ/bit = measured activity energy + static power integrated over the run;")
	fmt.Fprintln(e.w, " '*' marks the latency–energy Pareto frontier of the scenario)")
	fmt.Fprint(e.w, report.EnergyTable(results))
	fmt.Fprintln(e.w, "\nPareto frontier per (topology, pattern) scenario")
	fmt.Fprint(e.w, report.ParetoTable(results))
	return nil
}

// faultSweep degrades the pattern sweep with the fault and variation
// layer: each (topology, design point, device variant, pattern) cell runs
// the fault-rate ladder — seed-derived link-failure schedules, adaptive
// reroute, BER-driven retransmission under thermal drift — and reports
// availability, explicit loss accounting, and CLEAR degradation relative
// to the cell's healthy point.
func (e env) faultSweep(spec, variantSpec string) error {
	patterns, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	variants, err := parseVariants(variantSpec)
	if err != nil {
		return err
	}
	sc := core.DefaultFaultSweep()
	results, err := core.FaultSweep(context.Background(), e.kinds, e.points(), variants, patterns, sc, e.o, e.pool)
	if err != nil {
		return err
	}
	if e.csv {
		return report.WriteFaultSweep(e.w, results)
	}
	fmt.Fprintf(e.w, "%d×%d reliability sweep, express = %v, fault rates = %v, %d epochs\n",
		e.o.Topology.Width, e.o.Topology.Height, e.ex, sc.Rates, sc.Epochs)
	fmt.Fprintln(e.w, "(avail = fraction of (src,dst) pairs still connected; CLEAR× = CLEAR vs the healthy point)")
	fmt.Fprint(e.w, report.FaultTable(results))
	return nil
}

// taskGraphSweep replays the named closed-loop operator graphs on the
// selected fabrics: on the lone mesh kind the express hop ladder competes
// (the Fig. 6 axis, now scored by end-to-end makespan); otherwise one
// plain fabric per kind. Each cell reports the simulated makespan, the
// contention-free critical-path bound, and their ratio (stretch) — the
// congestion-feedback figure of merit.
func (e env) taskGraphSweep(spec string) error {
	gens, err := taskgraph.ParseGenerators(spec)
	if err != nil {
		return err
	}
	sc := core.DefaultTaskGraphSweep()
	var results []core.TaskGraphResult
	for _, k := range e.kinds {
		rs, err := core.TaskGraphSweep(context.Background(), e.points(), gens, sc, e.o.WithKind(k), e.pool)
		if err != nil {
			return err
		}
		results = append(results, rs...)
	}
	if e.csv {
		return report.WriteTaskGraphSweep(e.w, results)
	}
	fmt.Fprintf(e.w, "%d×%d closed-loop task-graph sweep, express = %v, payload %d flits, compute %d clks\n",
		e.o.Topology.Width, e.o.Topology.Height, e.ex, sc.Gen.SizeFlits, sc.Gen.ComputeClks)
	fmt.Fprintln(e.w, "(bound = contention-free critical path; stretch = makespan/bound, 1.00 = never delayed)")
	fmt.Fprint(e.w, report.TaskGraphTable(results))
	return nil
}

// telemetry is the instrumented variant of the pattern sweep: one run per
// design point × pattern at the telemetry load with sampled packet
// tracing and windowed probes attached, the Chrome trace-event export
// written to traceOut, and the probe census printed as tables and text
// heatmaps (or CSV with -csv). On the mesh the express hop ladder
// competes; other kinds run the plain fabric.
func (e env) telemetry(spec, traceOut string, probeWindow int64) error {
	if len(e.kinds) != 1 {
		return fmt.Errorf("-trace-out takes a single -topology kind")
	}
	patterns, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	o := e.o.WithKind(e.kinds[0])
	sc := core.DefaultTelemetrySweep()
	if probeWindow > 0 {
		sc.Telemetry.ProbeWindowClks = probeWindow
	}
	results, err := core.TelemetrySweep(context.Background(), e.points(), patterns, sc, o, e.pool)
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

	if e.csv {
		return report.WriteTelemetrySweep(e.w, results)
	}
	fmt.Fprintf(e.w, "%d×%d telemetry sweep @ rate %.3g, sample %.3g, window %d clks\n",
		o.Topology.Width, o.Topology.Height, sc.Rate,
		sc.Telemetry.SampleRate, sc.Telemetry.ProbeWindowClks)
	for _, r := range results {
		fmt.Fprintf(e.w, "\n=== %s ===\n", r.Label())
		if r.Saturated {
			fmt.Fprintln(e.w, "saturated (failed to drain); telemetry covers the run up to the cap")
		}
		fmt.Fprintf(e.w, "packets %d, sampled %d (%d spans recorded)\n",
			r.Trace.TotalPackets, r.Trace.SampledPackets, len(r.Trace.Spans))
		fmt.Fprint(e.w, report.SpanTable(r.Trace, 15))
		p := r.Probes
		fmt.Fprintf(e.w, "\nprobe timeline (%d windows of %d clks):\n", p.Windows(), p.WindowClks())
		fmt.Fprint(e.w, report.ProbeTimeline(p))
		net, _, err := o.NetworkAndTable(r.Point)
		if err != nil {
			return err
		}
		if peak := report.PeakWindow(p); peak >= 0 {
			fmt.Fprint(e.w, report.ProbeOccupancyGrid(p, net, peak))
			fmt.Fprint(e.w, report.ProbeLinkHeatmap(p, net, 12))
		}
	}
	fmt.Fprintf(e.w, "\nwrote Chrome trace JSON for %d cells to %s (open in Perfetto or chrome://tracing)\n",
		len(results), traceOut)
	return nil
}
