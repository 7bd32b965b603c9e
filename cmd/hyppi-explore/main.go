// Command hyppi-explore is the analytic front end of the reproduction:
// the paper's Section III-B design-space exploration — every hybrid NoC
// of Fig. 5 (base mesh technology × express link technology × hop
// length) evaluated with the CLEAR figure of merit, plus the Table III
// (capability C, utilization growth R) and Table IV (static power)
// datasets — followed by the Section V projections: Table VI (the WDM
// photonic router vs the plasmonic-switch HyPPI router) and the Fig. 8
// radar comparison of an electronic mesh, an all-photonic NoC and an
// all-HyPPI NoC on latency, energy per bit and area.
//
// Usage:
//
//	hyppi-explore [-rate 0.1] [-seed 1] [-policy monotone|shortest] [-workers 0]
//	hyppi-explore -topology torus,fbfly
//	hyppi-explore -topology all
//	hyppi-explore -cpuprofile cpu.out -memprofile mem.out
//	hyppi-explore -blockprofile block.out -mutexprofile mutex.out
//
// With -topology, the mesh exploration is followed by a cross-topology
// comparison of the named registry kinds (see internal/topology): an
// analytic table of plain electronic and HyPPI fabrics per kind.
//
// Every figure here is analytic; the cycle-accurate sweeps (synthetic
// patterns, measured energy, faults, task graphs, traces) are modes of
// hyppi-sim, and hyppi-all writes each figure's dataset as CSV.
//
// Design points are evaluated concurrently on a bounded worker pool
// (-workers 0 sizes it to GOMAXPROCS); results are identical to a serial
// sweep whatever the pool size.
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
	"repro/internal/optical"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/units"
)

// topologyUsage is package level so the usage test can assert every
// registered kind name is discoverable from -h.
var topologyUsage = "comma-separated topology kinds to cross-compare (" +
	strings.Join(topology.Names(), ", ") + "), or \"all\""

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-explore:", err)
		os.Exit(1)
	}
}

// run parses args and prints the analytic figures to stdout; progress,
// usage and flag errors go to stderr. Deferred profile flushing survives
// error returns.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hyppi-explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rate := fs.Float64("rate", 0.1, "maximum per-node injection rate (flits/cycle)")
	seed := fs.Int64("seed", 1, "traffic seed")
	policy := fs.String("policy", "monotone", "routing policy: monotone or shortest")
	topoFlag := fs.String("topology", "", topologyUsage)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
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

	stopProf, err := prof.StartAll(prof.Config{
		CPUPath: *cpuprofile, MemPath: *memprofile,
		BlockPath: *blockprofile, MutexPath: *mutexprofile,
	})
	if err != nil {
		return err
	}
	defer stopProf()

	o := core.DefaultOptions()
	o.Traffic.MaxInjectionRate = *rate
	o.Traffic.Seed = *seed
	switch *policy {
	case "monotone":
		o.Policy = routing.MonotoneExpress
	case "shortest":
		o.Policy = routing.ShortestHops
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	points := core.DefaultDesignSpace()
	results, err := core.ExploreContext(context.Background(), points, o, runner.Config{
		Workers: *workers,
		Progress: func(done, total int) {
			fmt.Fprintf(stderr, "\rexploring %d/%d design points", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		},
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "Table III — capability C and utilization growth R (fixed per topology)")
	fmt.Fprintf(stdout, "%-10s %-12s %-8s\n", "topology", "C (Gb/s)", "R")
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
		fmt.Fprintf(stdout, "%-10s %-12.2f %-8.3f\n", name, r.CapabilityGbpsPerNode, r.R)
	}

	fmt.Fprintln(stdout, "\nTable IV — static power, electronic base mesh + express links")
	fmt.Fprintf(stdout, "%-12s %-10s %-10s %-10s\n", "express", "3 hops", "5 hops", "15 hops")
	for _, e := range []tech.Technology{tech.Electronic, tech.Photonic, tech.HyPPI} {
		row := map[int]float64{}
		for _, r := range results {
			if r.Point.Base == tech.Electronic && r.Point.Express == e && r.Point.Hops > 0 {
				row[r.Point.Hops] = r.StaticW
			}
		}
		fmt.Fprintf(stdout, "%-12s %-10.3f %-10.3f %-10.3f\n", e, row[3], row[5], row[15])
	}
	for _, r := range results {
		if r.Point.Base == tech.Electronic && r.Point.Hops == 0 {
			fmt.Fprintf(stdout, "base electronic mesh: %.3f W\n", r.StaticW)
			break
		}
	}

	fmt.Fprintln(stdout, "\nFig. 5 — system CLEAR / latency / power / area per design point")
	fmt.Fprintf(stdout, "%-42s %-10s %-9s %-9s %-10s %-8s\n",
		"design point", "CLEAR", "lat(clk)", "power(W)", "area", "vs plain")
	ratios := core.CLEARRatioVsPlain(results)
	for _, r := range results {
		fmt.Fprintf(stdout, "%-42s %-10.4f %-9.1f %-9.3f %-10s %-8.2f\n",
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
		fmt.Fprintf(stdout, "\nHeadline: E-mesh + HyPPI express @3 hops improves CLEAR by %.2fx (paper: up to 1.8x)\n",
			headline/plain)
	}

	if *topoFlag != "" {
		kinds, err := topology.ParseKinds(*topoFlag)
		if err != nil {
			return err
		}
		if err := runKindComparison(stdout, kinds, o, *workers); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout)
	return printAllOptical(stdout, o)
}

// runKindComparison prints the cross-topology analytic table: every
// selected kind built plain (no express) in electronic and HyPPI base
// technologies at the Options' grid, evaluated on the worker pool.
func runKindComparison(w io.Writer, kinds []topology.Kind, o core.Options, workers int) error {
	points := []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.HyPPI, Express: tech.HyPPI, Hops: 0},
	}
	results, err := core.ExploreKinds(context.Background(), kinds, points, o,
		runner.Config{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nCross-topology comparison (%dx%d, plain fabrics)\n",
		o.Topology.Width, o.Topology.Height)
	fmt.Fprint(w, report.KindComparisonTable(results))
	return nil
}

// printAllOptical prints the Section V projections: Table VI's router
// models and the Fig. 8 radar of the electronic, all-photonic and
// all-HyPPI corners under the paper's synthetic traffic.
func printAllOptical(w io.Writer, o core.Options) error {
	fmt.Fprintln(w, "Table VI — WDM-based photonic vs HyPPI optical routers")
	fmt.Fprintf(w, "%-12s %-18s %-16s %-12s\n", "technology", "control (fJ/bit)", "loss range (dB)", "area (µm²)")
	for _, rm := range []optical.RouterModel{optical.PhotonicRouter(), optical.HyPPIRouter()} {
		lo, hi := rm.LossRange()
		fmt.Fprintf(w, "%-12v %-18.2f %.2f–%-10.2f %-12.0f\n", rm.Tech, rm.ControlFJPerBit, lo, hi, rm.AreaUM2)
	}

	radar, err := core.AllOpticalRadar(o)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\nFig. 8 — all-optical radar (smaller triangle is better)")
	fmt.Fprintf(w, "%-14s %-16s %-14s %-12s %-14s\n",
		"corner", "energy/bit", "latency (clk)", "area", "mean loss")
	rows := []struct {
		name string
		p    optical.Projection
	}{
		{"Electronic", radar.Electronic},
		{"All-Photonic", radar.Photonic},
		{"All-HyPPI", radar.HyPPI},
	}
	for _, r := range rows {
		loss := "-"
		if r.p.MeanPathLossDB > 0 {
			loss = fmt.Sprintf("%.1f dB (max %.1f)", r.p.MeanPathLossDB, r.p.WorstPathLossDB)
		}
		fmt.Fprintf(w, "%-14s %-16s %-14.1f %-12s %-14s\n",
			r.name, units.FormatSI(r.p.EnergyPerBitJ, "J/bit"),
			r.p.LatencyClks, core.FormatArea(r.p.AreaM2), loss)
	}

	fmt.Fprintf(w, "\nEnergy ratio electronic/all-HyPPI: %.0fx (paper: ~255x)\n",
		radar.Electronic.EnergyPerBitJ/radar.HyPPI.EnergyPerBitJ)
	fmt.Fprintf(w, "Area ratio all-photonic/all-HyPPI: %.0fx (paper: ~103x)\n",
		radar.Photonic.AreaM2/radar.HyPPI.AreaM2)
	fmt.Fprintf(w, "Area ratio electronic/all-HyPPI:   %.0fx (paper: ~18x)\n",
		radar.Electronic.AreaM2/radar.HyPPI.AreaM2)
	if optical.TriangleBetter(radar.HyPPI, radar.Electronic) && optical.TriangleBetter(radar.HyPPI, radar.Photonic) {
		fmt.Fprintln(w, "All-HyPPI encloses the smallest radar triangle, as in the paper.")
	}
	return nil
}
