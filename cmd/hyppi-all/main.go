// Command hyppi-all runs the complete reproduction and writes one CSV per
// paper table/figure into a results directory — the single command that
// regenerates the paper's evaluation section.
//
// Usage:
//
//	hyppi-all [-out results] [-scale 0.0625] [-grid 16x16] [-skip-traces] [-workers 0]
//
// The trace simulations (Fig. 6 / Table V) dominate the runtime (a few
// minutes at the default scale); -skip-traces omits them. -grid overrides
// the paper's 16×16 mesh for the analytic experiments (the NPB traces stay
// on the rank grid the kernels were synthesized for); routing and traffic
// are linear in nodes plus links on the mesh, so 64×64 and beyond stay
// interactive. Independent experiments run concurrently on a bounded
// worker pool (-workers 0 sizes it to GOMAXPROCS) with results identical
// to a serial run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-all:", err)
		os.Exit(1)
	}
}

// run parses args and writes one CSV per figure into the -out directory,
// printing one row-count and timing line per file to stdout; progress,
// usage and flag errors go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hyppi-all", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("out", "results", "output directory")
	scale := fs.Float64("scale", 1.0/16, "NPB volume scale for trace runs")
	grid := fs.String("grid", "16x16", "analytic-experiment router grid as WxH (e.g. 64x64)")
	skipTraces := fs.Bool("skip-traces", false, "skip the cycle-accurate trace simulations")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	o := core.DefaultOptions()
	w, h, err := topology.ParseGrid(*grid)
	if err != nil {
		return err
	}
	o.Topology.Width, o.Topology.Height = w, h
	pool := runner.Config{Workers: *workers, Progress: func(done, total int) {
		fmt.Fprintf(stderr, "\rtraces %d/%d", done, total)
		if done == total {
			fmt.Fprintln(stderr)
		}
	}}

	write := func(name string, fill func(*os.File) error) error {
		path := filepath.Join(*dir, name)
		start := time.Now()
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fill(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		// Write-through sanity check.
		rf, err := os.Open(path)
		if err != nil {
			return err
		}
		defer rf.Close()
		rows, err := report.Check(rf)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(stdout, "%-24s %4d rows  %v\n", name, rows, time.Since(start).Round(time.Millisecond))
		return nil
	}

	// Fig. 3.
	if err := write("fig3_link_clear.csv", func(f *os.File) error {
		pts, err := core.LinkSweep()
		if err != nil {
			return err
		}
		return report.WriteLinkSweep(f, pts)
	}); err != nil {
		return err
	}

	// Fig. 5 + Tables III/IV.
	if err := write("fig5_design_space.csv", func(f *os.File) error {
		res, err := core.ExploreContext(context.Background(), core.DefaultDesignSpace(), o,
			runner.Config{Workers: *workers})
		if err != nil {
			return err
		}
		return report.WriteExploration(f, res)
	}); err != nil {
		return err
	}

	// Fig. 8 + Table VI.
	if err := write("fig8_all_optical.csv", func(f *os.File) error {
		radar, err := core.AllOpticalRadar(o)
		if err != nil {
			return err
		}
		return report.WriteRadar(f, radar)
	}); err != nil {
		return err
	}

	if *skipTraces {
		return nil
	}

	// Fig. 6 + Table V: four kernels × (plain + three hop lengths) ×
	// three express technologies for FT (Table V), HyPPI for the rest —
	// one batch of independent jobs for the worker pool, in the same
	// order the historical serial loops produced.
	return write("fig6_table5_traces.csv", func(f *os.File) error {
		var jobs []core.TraceJob
		addJob := func(k npb.Kernel, express tech.Technology, hops int) {
			cfg := npb.DefaultConfig(k)
			cfg.Scale = *scale
			jobs = append(jobs, core.TraceJob{Kernel: cfg, Point: core.DesignPoint{
				Base: tech.Electronic, Express: express, Hops: hops}})
		}
		for _, k := range npb.Kernels {
			addJob(k, tech.HyPPI, 0)
			for _, hops := range []int{3, 5, 15} {
				addJob(k, tech.HyPPI, hops)
			}
		}
		for _, express := range []tech.Technology{tech.Electronic, tech.Photonic} {
			for _, hops := range []int{3, 5, 15} {
				addJob(npb.FT, express, hops)
			}
		}
		// Traces run on the paper's 16×16 rank grid whatever -grid says:
		// the kernels were synthesized for that many ranks, and Packetize
		// rejects traces addressing more nodes than the network has.
		oTrace := o
		oTrace.Topology.Width, oTrace.Topology.Height = 16, 16
		results, err := core.RunTraceExperiments(context.Background(), jobs, oTrace, noc.DefaultConfig(), pool)
		if err != nil {
			return err
		}
		return report.WriteTraceResults(f, results)
	})
}
