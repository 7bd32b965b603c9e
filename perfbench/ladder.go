package main

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The ladder workload is the latency–energy load ladder: core.EnergySweep
// on an 8×8 mesh, plain and with HyPPI express at 3 hops, over four
// patterns and the default rate ladder. Each point injects for
// ladderCycles cycles (the default is 5000), so a round takes under two
// seconds and a run holds enough rounds for a steady median.
const ladderCycles = 500

// Rates at or below ladderLowLoad, and at or above ladderHighLoad, form the
// low- and high-load bands of noc.ns_per_flit_hop.
const (
	ladderLowLoad  = 0.1
	ladderHighLoad = 0.3
)

var (
	ladderPoints = []core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	ladderPatterns = "uniform,tornado,transpose,hotspot"
)

var ladderWorkload = workload{
	name: "ladder",
	params: map[string]any{
		"grid": "8x8", "points": fmt.Sprint(ladderPoints), "patterns": ladderPatterns,
		"rates": core.DefaultEnergySweep().Rates, "cycles": ladderCycles, "workers": workers,
	},
	setup: setupLadder,
}

type ladderBench struct {
	o        core.Options
	patterns []traffic.Pattern
	sc       core.EnergySweepConfig
}

func setupLadder(cfg runConfig, tr *tracer) (bench, error) {
	b := &ladderBench{o: core.DefaultOptions(), sc: core.DefaultEnergySweep()}
	b.o.Topology.Width, b.o.Topology.Height = 8, 8
	b.o.Cache = core.NewNetworkCache()
	b.sc.Workload.Cycles = ladderCycles
	b.sc.Workload.Seed = cfg.seed
	var err error
	if b.patterns, err = traffic.ParsePatterns(ladderPatterns); err != nil {
		return nil, err
	}
	return b, warmNetworks(b.o, ladderPoints, tr)
}

func (b *ladderBench) run(ctx context.Context, lat *latencies) (round, error) {
	res, err := core.EnergySweep(ctx, []topology.Kind{topology.Mesh}, ladderPoints, b.patterns, b.sc, b.o,
		runner.Config{Workers: workers, Progress: lat.progress()})
	if err != nil {
		return round{}, err
	}
	if err := writeReport(func(w io.Writer) error { return report.WriteEnergySweep(w, res) }); err != nil {
		return round{}, err
	}
	return b.check(res), nil
}

// replay makes core.EnergySweep's calls: an energy model per design point,
// then per (point, pattern) cell the pattern matrix and, per rate, the
// Bernoulli packets, the simulation and the pricing. The Pareto marking
// that follows is not replayed; the digest does not cover it.
func (b *ladderBench) replay(ctx context.Context, tr *tracer) (round, error) {
	type cellEnv struct {
		point core.DesignPoint
		net   *topology.Network
		tab   *routing.Table
		model *energy.Model
	}
	ko := b.o.WithKind(topology.Mesh)
	var envs []cellEnv
	for _, p := range ladderPoints {
		net, tab, err := ko.NetworkAndTable(p)
		if err != nil {
			return round{}, err
		}
		var model *energy.Model
		if _, err := tr.span("energy.model", func() (err error) {
			model, err = energy.NewModel(net, b.o.DSENT)
			return err
		}); err != nil {
			return round{}, err
		}
		envs = append(envs, cellEnv{point: p, net: net, tab: tab, model: model})
	}
	sims := noc.NewSimPool()
	var results []core.EnergySweepResult
	for _, env := range envs {
		for _, pat := range b.patterns {
			var base *traffic.Matrix
			if _, err := tr.span("traffic.gen", func() (err error) {
				if base, err = pat.Generate(env.net, 1); err != nil {
					return err
				}
				return base.Validate()
			}); err != nil {
				return round{}, err
			}
			res := core.EnergySweepResult{
				Kind: env.net.Config.Kind, Point: env.point, Pattern: pat.Name(),
				StaticW: env.model.StaticW(), AreaM2: env.model.AreaM2(),
			}
			for _, rate := range b.sc.Rates {
				tr.op++
				ep, err := b.replayPoint(tr, env.net, env.tab, env.model, base, rate, sims)
				if err != nil {
					return round{}, fmt.Errorf("%v / %s @ %v: %w", env.point, pat.Name(), rate, err)
				}
				res.Points = append(res.Points, ep)
			}
			results = append(results, res)
		}
	}
	if err := tracedReport(tr, func(w io.Writer) error { return report.WriteEnergySweep(w, results) }); err != nil {
		return round{}, err
	}
	return b.check(results), nil
}

func (b *ladderBench) replayPoint(tr *tracer, net *topology.Network, tab *routing.Table, model *energy.Model,
	base *traffic.Matrix, rate float64, sims *noc.SimPool) (core.EnergyPoint, error) {
	var pkts []noc.Packet
	if _, err := tr.span("traffic.gen", func() (err error) {
		pkts, err = b.sc.Workload.Generate(net, base.ScaledToMaxRate(rate))
		return err
	}); err != nil {
		return core.EnergyPoint{}, err
	}
	tr.count("traffic.packets", float64(len(pkts)))
	st, d, err := tracedRun(tr, sims, net, tab, b.sc.NoC, func(s *noc.Sim) error { return s.InjectAll(pkts) }, "noc.run")
	band := ""
	switch {
	case rate <= ladderLowLoad:
		band = "low"
	case rate >= ladderHighLoad:
		band = "high"
	}
	if band != "" {
		tr.count("noc.run_ns."+band, float64(d.Nanoseconds()))
		tr.count("noc.flit_hops."+band, float64(flitHops(st)))
	}
	ep := core.EnergyPoint{Rate: rate}
	if err != nil {
		if !errors.Is(err, noc.ErrSaturated) {
			return ep, err
		}
		ep.Saturated = true
		return ep, nil
	}
	ep.AvgLatencyClks = st.AvgPacketLatencyClks
	ep.P99LatencyClks = st.P99PacketLatencyClks
	_, err = tr.span("energy.price", func() (err error) {
		if ep.Run, err = model.Price(st); err != nil {
			return err
		}
		ep.CLEAR, err = model.SimulatedCLEAR(st, rate)
		return err
	})
	return ep, err
}

// check digests the ladder: every point's latencies, energies and CLEAR.
func (b *ladderBench) check(res []core.EnergySweepResult) round {
	out := round{}
	d := newDigest()
	for _, c := range res {
		d.add("cell", c.Point, c.Pattern, c.StaticW, c.AreaM2)
		out.ops += len(c.Points)
		if len(c.Points) != len(b.sc.Rates) {
			out.failed += len(b.sc.Rates)
			out.problems = append(out.problems, fmt.Sprintf("ladder: %v / %s has %d points", c.Point, c.Pattern, len(c.Points)))
		}
		for _, p := range c.Points {
			d.add(p.Rate, p.Saturated, p.AvgLatencyClks, p.P99LatencyClks, p.Run.Cycles, p.Run.DynamicJ,
				p.Run.StaticJ, p.Run.FJPerBit, p.CLEAR.Value, p.CLEAR.R)
		}
	}
	out.digest = d.sum()
	return out
}

func (b *ladderBench) layerMetrics() map[string]float64 { return nil }
