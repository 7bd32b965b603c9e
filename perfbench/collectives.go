package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/taskgraph"
	"repro/internal/tech"
	"repro/internal/topology"
)

// The collectives workload is closed-loop task graphs: core.TaskGraphSweep
// over every registered generator on a collectivesGrid² mesh, plain and
// with HyPPI express at 3 and 5 hops. The generators take no seed, so the
// inputs are the same on every seed.
const collectivesGrid = 12

var collectivesPoints = []core.DesignPoint{
	{Base: tech.Electronic, Express: tech.Electronic},
	{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	{Base: tech.Electronic, Express: tech.HyPPI, Hops: 5},
}

var collectivesWorkload = workload{
	name: "collectives",
	params: map[string]any{
		"grid":   fmt.Sprintf("%dx%d", collectivesGrid, collectivesGrid),
		"points": fmt.Sprint(collectivesPoints), "graphs": taskgraph.Names(), "workers": workers,
	},
	setup: setupCollectives,
}

type collectivesBench struct {
	o    core.Options
	gens []taskgraph.Generator
	sc   core.TaskGraphSweepConfig
}

func setupCollectives(cfg runConfig, tr *tracer) (bench, error) {
	b := &collectivesBench{o: core.DefaultOptions(), gens: taskgraph.Generators(),
		sc: core.DefaultTaskGraphSweep()}
	b.o.Topology.Width, b.o.Topology.Height = collectivesGrid, collectivesGrid
	b.o.Cache = core.NewNetworkCache()
	return b, warmNetworks(b.o, collectivesPoints, tr)
}

func (b *collectivesBench) run(ctx context.Context, lat *latencies) (round, error) {
	res, err := core.TaskGraphSweep(ctx, collectivesPoints, b.gens, b.sc, b.o,
		runner.Config{Workers: workers, Progress: lat.progress()})
	if err != nil {
		return round{}, err
	}
	return b.check(res), nil
}

// replay makes core.TaskGraphSweep's calls: the networks, one graph per
// generator, then per (point, graph) job the closed-loop simulation and
// the contention-free critical-path bound.
func (b *collectivesBench) replay(ctx context.Context, tr *tracer) (round, error) {
	nets := make([]*topology.Network, len(collectivesPoints))
	tabs := make([]*routing.Table, len(collectivesPoints))
	for i, p := range collectivesPoints {
		var err error
		if nets[i], tabs[i], err = b.o.NetworkAndTable(p); err != nil {
			return round{}, err
		}
	}
	graphs := make([]*taskgraph.Graph, len(b.gens))
	for i, gen := range b.gens {
		if _, err := tr.span("taskgraph.gen", func() (err error) {
			if graphs[i], err = gen.Generate(collectivesGrid*collectivesGrid, b.sc.Gen); err != nil {
				return err
			}
			return graphs[i].Validate()
		}); err != nil {
			return round{}, fmt.Errorf("graph %s: %w", gen.Name(), err)
		}
	}
	sims := noc.NewSimPool()
	var results []core.TaskGraphResult
	for pi, p := range collectivesPoints {
		for _, g := range graphs {
			tr.op++
			res, err := b.replayGraph(tr, g, nets[pi], tabs[pi], sims)
			if err != nil {
				return round{}, fmt.Errorf("%v / %s: %w", p, g.Name, err)
			}
			res.Kind, res.Point = b.o.Topology.Canonical().Kind, p
			results = append(results, res)
		}
	}
	return b.check(results), nil
}

func (b *collectivesBench) replayGraph(tr *tracer, g *taskgraph.Graph, net *topology.Network, tab *routing.Table,
	sims *noc.SimPool) (core.TaskGraphResult, error) {
	cfg := b.sc.NoC
	pkts := make([]noc.Packet, len(g.Messages))
	deps := make([][]int, len(g.Messages))
	for i, m := range g.Messages {
		pkts[i] = noc.Packet{Src: m.Src, Dst: m.Dst, SizeFlits: m.SizeFlits, Release: m.ComputeClks}
		deps[i] = m.Deps
	}
	st, _, err := tracedRun(tr, sims, net, tab, cfg,
		func(s *noc.Sim) error { return s.InjectClosedLoop(pkts, deps) }, "noc.closedloop_run")
	if err != nil {
		return core.TaskGraphResult{}, err
	}
	tr.count("noc.makespan_clks", float64(st.MakespanClks))
	var lb int64
	if _, err := tr.span("taskgraph.bound", func() (err error) {
		lb, err = g.CriticalPathClks(func(m taskgraph.Message) int64 {
			return int64(tab.LatencyClks(m.Src, m.Dst, cfg.PipelineClks) + m.SizeFlits - 1)
		})
		return err
	}); err != nil {
		return core.TaskGraphResult{}, err
	}
	res := core.TaskGraphResult{
		Graph: g.Name, Messages: len(g.Messages), TotalFlits: g.TotalFlits(),
		MakespanClks: st.MakespanClks, LowerBoundClks: lb,
		AvgLatencyClks: st.AvgPacketLatencyClks, P99LatencyClks: st.P99PacketLatencyClks, Cycles: st.Cycles,
	}
	if lb > 0 {
		res.Stretch = float64(res.MakespanClks) / float64(lb)
	}
	return res, nil
}

// check digests the makespans and verifies that no makespan beats its
// contention-free bound.
func (b *collectivesBench) check(res []core.TaskGraphResult) round {
	out := round{ops: len(res)}
	if want := len(collectivesPoints) * len(b.gens); len(res) != want {
		out.failed = want
		out.problems = append(out.problems, fmt.Sprintf("collectives: %d results, want %d", len(res), want))
	}
	d := newDigest()
	for _, r := range res {
		d.add(r.Point, r.Graph, r.Messages, r.TotalFlits, r.MakespanClks, r.LowerBoundClks, r.Cycles,
			r.AvgLatencyClks, r.P99LatencyClks)
		if r.MakespanClks < r.LowerBoundClks {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("collectives: %v / %s makespan %d below its bound %d",
				r.Point, r.Graph, r.MakespanClks, r.LowerBoundClks))
		}
	}
	out.digest = d.sum()
	return out
}

func (b *collectivesBench) layerMetrics() map[string]float64 { return nil }
