// Command hyppi-trace synthesizes NAS Parallel Benchmark communication
// traces (FT, CG, MG, LU — 256 ranks, Class A scaled) in the repository's
// text trace format, standing in for the paper's MPICL captures from a Cray
// XE6m.
//
// Usage:
//
//	hyppi-trace -kernel FT [-scale 0.0625] [-iterations 0] [-o file]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/npb"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-trace:", err)
		os.Exit(1)
	}
}

// run parses args, synthesizes the kernel's trace and writes it to -o (or
// stdout); the summary line, usage and flag errors go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hyppi-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "FT", "benchmark kernel: FT, CG, MG or LU")
	scale := fs.Float64("scale", 1.0/16, "message volume scale relative to Class A")
	iters := fs.Int("iterations", 0, "iteration count (0 = kernel default)")
	factor := fs.Float64("factor", 8, "injection pacing factor (≈1/injection rate)")
	seed := fs.Int64("seed", 1, "send-order shuffle seed")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	k, err := npb.ParseKernel(*kernel)
	if err != nil {
		return err
	}
	cfg := npb.DefaultConfig(k)
	cfg.Scale = *scale
	cfg.Iterations = *iters
	cfg.InjectionFactor = *factor
	cfg.Seed = *seed

	events, err := npb.Generate(cfg)
	if err != nil {
		return err
	}

	if *out == "" {
		err = trace.Write(stdout, events)
	} else {
		err = writeFile(*out, events)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "hyppi-trace: %s — %d messages, %d bytes total\n",
		k, len(events), trace.TotalBytes(events))
	return nil
}

// writeFile writes events to a new file at path and closes it explicitly:
// a failed write-back surfaces at Close, and must not read as success.
func writeFile(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
