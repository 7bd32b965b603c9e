package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/routing"
	"repro/internal/topology"
)

// warmNetworks resolves every design point's network and routing table
// into the Options' cache. With a tracer it first builds each distinct
// network once more by direct calls, with a span around each build.
func warmNetworks(o core.Options, points []core.DesignPoint, tr *tracer) error {
	seen := map[topology.Config]bool{}
	for _, p := range points {
		if c := netConfig(o, p); tr != nil && !seen[c] {
			seen[c] = true
			var net *topology.Network
			if _, err := tr.span("topology.build", func() (err error) {
				net, err = topology.Build(c)
				return err
			}); err != nil {
				return err
			}
			if _, err := tr.span("routing.build", func() error {
				_, err := routing.Build(net, o.Policy)
				return err
			}); err != nil {
				return err
			}
			tr.count("routing.builds", 1)
		}
		if _, _, err := o.NetworkAndTable(p); err != nil {
			return fmt.Errorf("%v: %w", p, err)
		}
	}
	return nil
}

// netConfig is the topology configuration Options.NetworkAndTable builds
// for a design point.
func netConfig(o core.Options, p core.DesignPoint) topology.Config {
	c := o.Topology
	c.BaseTech, c.ExpressTech, c.ExpressHops = p.Base, p.Express, p.Hops
	if c.ExpressHops == 0 {
		c.ExpressTech = c.BaseTech
	}
	return c.Canonical()
}

// writeReport renders a figure into memory and reads it back through
// report.Check, as hyppi-all's write-through check does.
func writeReport(write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	rows, err := report.Check(&buf)
	if err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("report has no rows")
	}
	return nil
}

func tracedReport(tr *tracer, write func(io.Writer) error) error {
	_, err := tr.span("report.write", func() error { return writeReport(write) })
	return err
}

// flitHops counts channel traversals as BenchmarkSimulatorThroughput does.
func flitHops(st noc.Stats) int64 {
	var n int64
	for _, v := range st.LinkFlits {
		n += v
	}
	return n
}

// tracedRun is the kernel part of every simulated job: draw a simulator
// from the pool, inject, run, and return the simulator, with a span around
// each call. It counts the run, its cycles and flit-hops, and saturation.
func tracedRun(tr *tracer, sims *noc.SimPool, net *topology.Network, tab *routing.Table, cfg noc.Config,
	inject func(*noc.Sim) error, runSpan string) (noc.Stats, time.Duration, error) {
	var sim *noc.Sim
	if _, err := tr.span("noc.new", func() (err error) {
		sim, err = sims.Get(net, tab, cfg)
		return err
	}); err != nil {
		return noc.Stats{}, 0, err
	}
	if _, err := tr.span("noc.inject", func() error { return inject(sim) }); err != nil {
		sims.Put(sim)
		return noc.Stats{}, 0, err
	}
	var st noc.Stats
	d, err := tr.span(runSpan, func() (err error) {
		st, err = sim.Run()
		return err
	})
	sims.Put(sim)
	tr.count("noc.runs", 1)
	tr.count("noc.cycles", float64(st.Cycles))
	tr.count("noc.flit_hops", float64(flitHops(st)))
	if errors.Is(err, noc.ErrSaturated) {
		tr.count("noc.saturated_runs", 1)
	}
	return st, d, err
}
