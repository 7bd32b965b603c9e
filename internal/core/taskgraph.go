package core

import (
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// TaskGraphSweepConfig parameterizes a closed-loop task-graph sweep.
type TaskGraphSweepConfig struct {
	// Gen shapes the generated operator graphs (payload, compute,
	// microbatches).
	Gen taskgraph.GenConfig
	// NoC configures the cycle-accurate simulator.
	NoC noc.Config
}

// DefaultTaskGraphSweep runs the registry's operators at the default
// payload/compute on the Table II router. Closed-loop runs always drain on
// a valid DAG; the cycle cap only backstops runaway congestion.
func DefaultTaskGraphSweep() TaskGraphSweepConfig {
	cfg := noc.DefaultConfig()
	cfg.MaxCycles = 5_000_000
	return TaskGraphSweepConfig{Gen: taskgraph.DefaultGenConfig(), NoC: cfg}
}

// Validate checks the sweep parameters.
func (c TaskGraphSweepConfig) Validate() error {
	if err := c.Gen.Validate(); err != nil {
		return err
	}
	return c.NoC.Validate()
}

// TaskGraphResult is one (topology kind, design point, graph) cell of a
// closed-loop sweep: the end-to-end makespan against its contention-free
// lower bound, plus the per-message network latency distribution.
type TaskGraphResult struct {
	// Kind is the topology family the cell ran on.
	Kind  topology.Kind
	Point DesignPoint
	// Graph is the generator name; Messages and TotalFlits its size.
	Graph      string
	Messages   int
	TotalFlits int64
	// MakespanClks is the cycle the last tail flit ejected — the
	// workload's end-to-end completion time under congestion feedback.
	MakespanClks int64
	// LowerBoundClks folds zero-load message latencies over the DAG's
	// critical path (taskgraph.CriticalPathClks): the makespan of an ideal
	// contention-free network. The simulated makespan can only meet it
	// (uncongested schedules) or exceed it (congestion stretching the
	// schedule).
	LowerBoundClks int64
	// Stretch is MakespanClks/LowerBoundClks ≥ 1 — the congestion-feedback
	// figure of merit (1.0 = the network never delayed the schedule).
	Stretch float64
	// AvgLatencyClks and P99LatencyClks summarize per-message network
	// latency (release→tail-ejection, compute excluded).
	AvgLatencyClks float64
	P99LatencyClks float64
	// Cycles is the simulated horizon (= MakespanClks at drain).
	Cycles int64
}

// TaskGraphSweep runs the design-point × graph closed-loop matrix on the
// worker pool: each (point, graph) job replays the generated message DAG
// through noc.InjectClosedLoop on a pooled simulator and scores the
// resulting makespan against the contention-free critical path. Graphs are
// generated once up front (generators are pure, so this is only an
// optimization) and shared read-only; results come back point-major,
// graph-minor and are bit-identical for any worker count — the standard
// determinism contract. The first failure cancels the batch.
func TaskGraphSweep(ctx context.Context, points []DesignPoint, gens []taskgraph.Generator,
	sc TaskGraphSweepConfig, o Options, pool runner.Config) ([]TaskGraphResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("core: task-graph sweep with no graphs")
	}
	fabs, err := resolveFabrics([]topology.Kind{o.Topology.Kind}, points, o, false)
	if err != nil {
		return nil, err
	}
	graphs, orders, err := generateGraphs(gens, o.Topology.Width*o.Topology.Height, sc.Gen)
	if err != nil {
		return nil, err
	}
	name := func(j int) string { return graphs[j].Name }
	return sweepCells(ctx, fabs, len(graphs), name, pool,
		func(_ context.Context, _ int, f fabric, j int, sims *noc.SimPool) (TaskGraphResult, error) {
			return runTaskGraph(graphs[j], orders[j], f, sc.NoC, sims)
		})
}

// generateGraphs builds and validates one graph per generator for a node
// count, returning each graph's topological order with it: every point of
// a sweep folds its critical-path bound over the same order.
func generateGraphs(gens []taskgraph.Generator, numNodes int, cfg taskgraph.GenConfig) ([]*taskgraph.Graph, [][]int, error) {
	graphs := make([]*taskgraph.Graph, len(gens))
	orders := make([][]int, len(gens))
	for i, gen := range gens {
		g, err := gen.Generate(numNodes, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("core: graph %s: %w", gen.Name(), err)
		}
		if orders[i], err = g.ValidOrder(); err != nil {
			return nil, nil, fmt.Errorf("core: graph %s: %w", gen.Name(), err)
		}
		graphs[i] = g
	}
	return graphs, orders, nil
}

// runTaskGraph replays one DAG through a pooled closed-loop simulation and
// scores it against the contention-free critical path, folded over the
// graph's topological order.
func runTaskGraph(g *taskgraph.Graph, order []int, f fabric, cfg noc.Config, sims *noc.SimPool) (TaskGraphResult, error) {
	pkts := make([]noc.Packet, len(g.Messages))
	deps := make([][]int, len(g.Messages))
	for i, m := range g.Messages {
		pkts[i] = noc.Packet{Src: m.Src, Dst: m.Dst, SizeFlits: m.SizeFlits, Release: m.ComputeClks}
		deps[i] = m.Deps
	}
	st, err := simulate(sims, f.net, f.tab, cfg, workload{pkts: pkts, deps: deps})
	if err != nil {
		return TaskGraphResult{}, err
	}
	// The bound folds the simulator's exact zero-load message latency
	// (pinned by TestZeroLoadLatencyMatchesAnalytic) over the DAG: an
	// uncongested serial schedule meets it exactly.
	lb := g.CriticalPathInOrder(order, func(m taskgraph.Message) int64 {
		return int64(f.tab.LatencyClks(m.Src, m.Dst, cfg.PipelineClks) + m.SizeFlits - 1)
	})
	res := TaskGraphResult{
		Kind:           f.kind,
		Point:          f.point,
		Graph:          g.Name,
		Messages:       len(g.Messages),
		TotalFlits:     g.TotalFlits(),
		MakespanClks:   st.MakespanClks,
		LowerBoundClks: lb,
		AvgLatencyClks: st.AvgPacketLatencyClks,
		P99LatencyClks: st.P99PacketLatencyClks,
		Cycles:         st.Cycles,
	}
	if lb > 0 {
		res.Stretch = float64(res.MakespanClks) / float64(lb)
	}
	return res, nil
}
