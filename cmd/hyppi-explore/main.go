// Command hyppi-explore runs the paper's Section III-B design-space
// exploration: every hybrid NoC of Fig. 5 (base mesh technology × express
// link technology × hop length) evaluated with the CLEAR figure of merit,
// plus the Table III (capability C, utilization growth R) and Table IV
// (static power) datasets.
//
// Usage:
//
//	hyppi-explore [-rate 0.1] [-seed 1] [-policy monotone|shortest] [-workers 0]
//	hyppi-explore -patterns tornado,transpose
//	hyppi-explore -patterns all
//	hyppi-explore -topology torus,fbfly
//	hyppi-explore -topology all -patterns all
//	hyppi-explore -energy [-patterns uniform,tornado]
//	hyppi-explore -patterns uniform -grid 64x64
//	hyppi-explore -cpuprofile cpu.out -memprofile mem.out
//	hyppi-explore -blockprofile block.out -mutexprofile mutex.out
//
// With -patterns, the analytic exploration is followed by a
// cycle-accurate synthetic-pattern saturation sweep (the -grid geometry,
// default 8×8; larger grids stay interactive because routing, traffic and
// the kernel are all O(n) in nodes) comparing the plain electronic mesh
// against the headline E + HyPPI express@3 hybrid for the named registry
// patterns, reporting each pattern's latency-knee saturation throughput.
//
// With -energy, the analytic exploration is followed by a measured
// latency–energy sweep (8×8 grid, plain electronic mesh versus electronic
// and HyPPI express hybrids) over the -patterns list (default
// uniform,tornado): every drained point is priced by the activity-based
// energy subsystem — measured fJ/bit and simulated CLEAR — and each
// pattern's latency–energy Pareto frontier is printed. Combined with
// -topology, one plain electronic fabric per selected kind competes
// instead of the express hybrids. The analytic path *estimates* power
// from injection rates; -energy *measures* it from simulator activity
// counters.
//
// With -topology, the mesh exploration is followed by a cross-topology
// comparison of the named registry kinds (see internal/topology): an
// analytic table of plain electronic and HyPPI fabrics per kind, and —
// when -patterns is also given — the full topology × pattern × load
// saturation matrix on the worker pool instead of the mesh-only sweep.
//
// Design points are evaluated concurrently on a bounded worker pool
// (-workers 0 sizes it to GOMAXPROCS); results are identical to a serial
// sweep whatever the pool size.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Flag usage strings are package level so the usage test can assert every
// registered pattern and kind name is discoverable from -h.
var (
	patternUsage = "comma-separated synthetic patterns to saturation-sweep (" +
		strings.Join(traffic.Names(), ", ") + "), or \"all\""
	topologyUsage = "comma-separated topology kinds to cross-compare (" +
		strings.Join(topology.Names(), ", ") + "), or \"all\""
)

func main() {
	os.Exit(run())
}

// run holds main's body so deferred profile flushing survives error exits.
func run() int {
	rate := flag.Float64("rate", 0.1, "maximum per-node injection rate (flits/cycle)")
	seed := flag.Int64("seed", 1, "traffic seed")
	policy := flag.String("policy", "monotone", "routing policy: monotone or shortest")
	patterns := flag.String("patterns", "", patternUsage)
	topoFlag := flag.String("topology", "", topologyUsage)
	grid := flag.String("grid", "8x8", "cycle-accurate sweep router grid as WxH (e.g. 64x64)")
	energyFlag := flag.Bool("energy", false,
		"follow the exploration with a measured latency–energy sweep "+
			"(activity-based fJ/bit, simulated CLEAR, Pareto fronts)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
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
		fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
		return 1
	}
	defer stopProf()

	o := core.DefaultOptions()
	o.Traffic.MaxInjectionRate = *rate
	o.Traffic.Seed = *seed
	simW, simH, err := topology.ParseGrid(*grid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
		return 1
	}
	switch *policy {
	case "monotone":
		o.Policy = routing.MonotoneExpress
	case "shortest":
		o.Policy = routing.ShortestHops
	default:
		fmt.Fprintf(os.Stderr, "hyppi-explore: unknown policy %q\n", *policy)
		return 1
	}

	points := core.DefaultDesignSpace()
	results, err := core.ExploreContext(context.Background(), points, o, runner.Config{
		Workers: *workers,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rexploring %d/%d design points", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
		return 1
	}

	fmt.Println("Table III — capability C and utilization growth R (fixed per topology)")
	fmt.Printf("%-10s %-12s %-8s\n", "topology", "C (Gb/s)", "R")
	seen := map[int]bool{}
	for _, r := range results {
		if r.Point.Base != tech.Electronic || seen[r.Point.Hops] {
			continue
		}
		seen[r.Point.Hops] = true
		name := "plain mesh"
		if r.Point.Hops > 0 {
			name = fmt.Sprintf("hops=%d", r.Point.Hops)
		}
		fmt.Printf("%-10s %-12.2f %-8.3f\n", name, r.CapabilityGbpsPerNode, r.R)
	}

	fmt.Println("\nTable IV — static power, electronic base mesh + express links")
	fmt.Printf("%-12s %-10s %-10s %-10s\n", "express", "3 hops", "5 hops", "15 hops")
	for _, e := range []tech.Technology{tech.Electronic, tech.Photonic, tech.HyPPI} {
		row := map[int]float64{}
		for _, r := range results {
			if r.Point.Base == tech.Electronic && r.Point.Express == e && r.Point.Hops > 0 {
				row[r.Point.Hops] = r.StaticW
			}
		}
		fmt.Printf("%-12s %-10.3f %-10.3f %-10.3f\n", e, row[3], row[5], row[15])
	}
	for _, r := range results {
		if r.Point.Base == tech.Electronic && r.Point.Hops == 0 {
			fmt.Printf("base electronic mesh: %.3f W\n", r.StaticW)
			break
		}
	}

	fmt.Println("\nFig. 5 — system CLEAR / latency / power / area per design point")
	fmt.Printf("%-42s %-10s %-9s %-9s %-10s %-8s\n",
		"design point", "CLEAR", "lat(clk)", "power(W)", "area", "vs plain")
	ratios := core.CLEARRatioVsPlain(results)
	for _, r := range results {
		fmt.Printf("%-42s %-10.4f %-9.1f %-9.3f %-10s %-8.2f\n",
			r.Point, r.CLEAR, r.AvgLatencyClks, r.PowerW,
			core.FormatArea(r.AreaM2), ratios[r.Point])
	}

	// Headline.
	var plain, headline float64
	for _, r := range results {
		if r.Point.Base == tech.Electronic && r.Point.Hops == 0 {
			plain = r.CLEAR
		}
		if r.Point.Base == tech.Electronic && r.Point.Express == tech.HyPPI && r.Point.Hops == 3 {
			headline = r.CLEAR
		}
	}
	if plain > 0 {
		fmt.Printf("\nHeadline: E-mesh + HyPPI express @3 hops improves CLEAR by %.2fx (paper: up to 1.8x)\n",
			headline/plain)
	}

	if *topoFlag != "" {
		kinds, err := topology.ParseKinds(*topoFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
			return 1
		}
		if err := runKindComparison(kinds, o, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
			return 1
		}
		if *patterns != "" {
			if err := runPatternSweep(kinds, *patterns, o, simW, simH, *workers); err != nil {
				fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
				return 1
			}
		}
		if *energyFlag {
			if err := runEnergySweep(kinds, *patterns, o, simW, simH, *workers); err != nil {
				fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
				return 1
			}
		}
		return 0
	}

	if *patterns != "" && !*energyFlag {
		if err := runPatternSweep(nil, *patterns, o, simW, simH, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
			return 1
		}
	}
	if *energyFlag {
		if err := runEnergySweep(nil, *patterns, o, simW, simH, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
			return 1
		}
	}
	return 0
}

// runEnergySweep follows the analytic exploration with the measured
// latency–energy matrix on an 8×8 grid, priced per drained point by the
// activity-based energy subsystem with the per-pattern Pareto frontier.
// On the mesh (nil or {mesh} kinds) the plain electronic mesh competes
// against the electronic and HyPPI express@3 hybrids; with explicit
// non-mesh kinds one plain electronic fabric per kind competes instead
// (non-mesh fabrics take no express channels).
func runEnergySweep(kinds []topology.Kind, spec string, o core.Options, simW, simH, workers int) error {
	if spec == "" {
		spec = "uniform,tornado"
	}
	pats, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	o.Topology.Width, o.Topology.Height = simW, simH
	meshOnly := len(kinds) == 0 || (len(kinds) == 1 && kinds[0] == topology.Mesh)
	if len(kinds) == 0 {
		kinds = []topology.Kind{topology.Mesh}
	}
	points := []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
	}
	if meshOnly {
		points = append(points,
			core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 3},
			core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3})
	}
	sc := core.DefaultEnergySweep()
	results, err := core.EnergySweep(context.Background(), kinds,
		points, pats, sc, o, runner.Config{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("\nMeasured latency–energy sweep (%d×%d, cycle-accurate, rates %v)\n", simW, simH, sc.Rates)
	fmt.Println("fJ/bit = measured activity energy + static power integrated over the run;")
	fmt.Println("'*' marks the per-pattern latency–energy Pareto frontier")
	fmt.Print(report.EnergyTable(results))
	fmt.Println("\nPareto frontier per pattern")
	fmt.Print(report.ParetoTable(results))
	return nil
}

// runKindComparison prints the cross-topology analytic table: every
// selected kind built plain (no express) in electronic and HyPPI base
// technologies at the Options' grid, evaluated on the worker pool.
func runKindComparison(kinds []topology.Kind, o core.Options, workers int) error {
	points := []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.HyPPI, Express: tech.HyPPI, Hops: 0},
	}
	results, err := core.ExploreKinds(context.Background(), kinds, points, o,
		runner.Config{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("\nCross-topology comparison (%dx%d, plain fabrics)\n",
		o.Topology.Width, o.Topology.Height)
	fmt.Print(report.KindComparisonTable(results))
	return nil
}

// runPatternSweep follows the analytic exploration with a cycle-accurate
// saturation sweep of the named registry patterns on the -grid geometry:
// without kinds, the plain electronic mesh against the paper's headline
// E + HyPPI express@3 hybrid; with kinds, the full topology × pattern ×
// load matrix, one plain electronic fabric per kind.
func runPatternSweep(kinds []topology.Kind, spec string, o core.Options, simW, simH, workers int) error {
	pats, err := traffic.ParsePatterns(spec)
	if err != nil {
		return err
	}
	o.Topology.Width, o.Topology.Height = simW, simH
	title := "Topology × pattern"
	points := []core.DesignPoint{{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}}
	if kinds == nil {
		title = "Synthetic-pattern"
		kinds = []topology.Kind{topology.Mesh}
		points = append(points, core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3})
	}
	sc := core.DefaultEnergySweep()
	results, err := core.PatternSweep(context.Background(), kinds, points, pats, sc, o,
		runner.Config{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("\n%s saturation sweep (%d×%d, cycle-accurate, rates %v)\n", title, simW, simH, sc.Rates)
	fmt.Println("latency-knee rule: saturation = lowest rate with avg > 3x zero-load, or no drain")
	fmt.Print(report.SaturationTable(results))
	return nil
}
