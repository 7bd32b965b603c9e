package core

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// EvalCell is one serving-layer evaluation request: a single (topology
// kind, geometry, design point, traffic source, offered load) sample of
// the matrices PatternSweep and EnergySweep walk as cross products. A
// serving front end (internal/serve) coalesces heterogeneous queued
// queries into one EvalCells call, so cells carry their own kind,
// geometry and rate instead of sharing the sweep's axes.
type EvalCell struct {
	// Kind selects the topology family ("" = the Options' kind).
	Kind topology.Kind
	// Width and Height override the Options' grid when positive.
	Width, Height int
	// Point is the technology design point to build.
	Point DesignPoint
	// Pattern is the synthetic traffic source; nil selects Trace mode.
	Pattern traffic.Pattern
	// Trace is the NPB kernel configuration replayed when Pattern is nil.
	Trace *npb.Config
	// Rate is the offered peak per-node injection rate in flits/cycle
	// (pattern mode only; trace volumes are fixed by the kernel).
	Rate float64
	// Energy prices the run with the activity-based energy model
	// (internal/energy) and evaluates the simulated CLEAR.
	Energy bool
}

// EvalCellResult is one cell's measured outcome.
//
// Unlike the sweep entry points, a cell failure is captured in Err rather
// than cancelling the batch: a serving layer must answer every query of a
// coalesced batch independently, so one client's unsatisfiable request
// (e.g. transpose on a non-square grid) cannot fail its neighbours. Err
// is a deterministic function of the cell, preserving the contract that
// batched results are bit-identical to serial evaluation.
type EvalCellResult struct {
	// Err reports this cell's failure; the other fields are zero.
	Err error
	// Saturated marks runs that failed to drain within the cycle cap;
	// such runs carry latency of the aborted horizon and no pricing.
	Saturated bool
	// AvgLatencyClks and P99LatencyClks summarize packet latency.
	AvgLatencyClks, P99LatencyClks float64
	// Cycles and Packets are the run's simulated extent.
	Cycles, Packets int64
	// Run is the measured energy accounting (Energy cells only).
	Run energy.RunEnergy
	// CLEAR is the simulated eq. 2 evaluation (Energy cells only; trace
	// cells fall back to the measured peak source rate).
	CLEAR energy.CLEAR
}

// evalEnv is the shared, read-only per-(kind, geometry, point) fabric of
// a batch — priced when any of its cells prices energy — or the error
// resolving it.
type evalEnv struct {
	fabric
	err error
}

type evalEnvKey struct {
	kind          topology.Kind
	width, height int
	point         DesignPoint
}

// options returns the Options with the cell's kind and geometry applied.
func (c EvalCell) options(o Options) Options {
	if c.Kind != "" {
		o.Topology.Kind = c.Kind
	}
	if c.Width > 0 {
		o.Topology.Width = c.Width
	}
	if c.Height > 0 {
		o.Topology.Height = c.Height
	}
	return o
}

func (c EvalCell) envKey() evalEnvKey {
	return evalEnvKey{kind: c.Kind, width: c.Width, height: c.Height, point: c.Point}
}

// EvalCells evaluates a heterogeneous batch of serving cells on the
// worker pool: networks, tables and energy models are resolved once per
// distinct (kind, geometry, point) through the Options' cache and shared
// read-only, simulators are recycled through one batch-wide noc.SimPool,
// and each cell runs its own traffic source at its own rate. Every cell
// is a pure function of its fields over read-only inputs and results are
// collected in cell order, so the output is bit-identical for any worker
// count and any batch composition — evaluating a cell alone, serially, or
// coalesced with arbitrary neighbours yields the same bytes. Per-cell
// failures land in EvalCellResult.Err; EvalCells itself fails only on
// context cancellation or an empty batch.
func EvalCells(ctx context.Context, cells []EvalCell, sc EnergySweepConfig, o Options, pool runner.Config) ([]EvalCellResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("core: empty evaluation batch")
	}
	if sc.Workload.SizeFlits <= 0 || sc.Workload.Cycles <= 0 {
		return nil, fmt.Errorf("core: invalid batch workload %+v", sc.Workload)
	}
	// Resolve the distinct environments serially up front (cheap: the
	// network cache memoizes construction) and share them read-only.
	envs := map[evalEnvKey]*evalEnv{}
	for _, c := range cells {
		key := c.envKey()
		env, ok := envs[key]
		if !ok {
			env = &evalEnv{}
			env.fabric, env.err = c.options(o).resolve(c.Point, false)
			envs[key] = env
		}
		if c.Energy && env.err == nil && env.model == nil {
			env.fabric, env.err = env.priced(o.DSENT)
		}
	}
	sims := noc.NewSimPool()
	return runner.Map(ctx, len(cells), pool, func(ctx context.Context, i int) (EvalCellResult, error) {
		if err := ctx.Err(); err != nil {
			return EvalCellResult{}, err
		}
		return evalOneCell(cells[i], envs[cells[i].envKey()], sc, sims), nil
	})
}

// evalOneCell runs one cell against its resolved environment.
func evalOneCell(c EvalCell, env *evalEnv, sc EnergySweepConfig, sims *noc.SimPool) EvalCellResult {
	fail := func(err error) EvalCellResult {
		return EvalCellResult{Err: fmt.Errorf("core: %v: %w", c.Point, err)}
	}
	if env.err != nil {
		return fail(env.err)
	}
	var st noc.Stats
	var sat bool
	switch {
	case c.Pattern != nil && c.Trace != nil:
		return fail(fmt.Errorf("cell has both a pattern and a trace"))
	case c.Pattern != nil:
		if c.Rate <= 0 {
			return fail(fmt.Errorf("pattern cell needs a positive rate, got %v", c.Rate))
		}
		base, err := patternBase(env.fabric, c.Pattern)
		if err != nil {
			return fail(err)
		}
		if st, sat, err = env.openLoop(sims, base, c.Rate, sc.Workload, sc.NoC, nil); err != nil {
			return fail(err)
		}
	case c.Trace != nil:
		pkts, err := TraceJob{Kernel: *c.Trace}.packets(env.net.NumNodes())
		if err != nil {
			return fail(err)
		}
		st, err = simulate(sims, env.net, env.tab, sc.NoC, workload{pkts: pkts})
		if sat, err = saturation(err); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("cell has neither a pattern nor a trace"))
	}

	// Failure to drain is the saturation signal, exactly as in
	// EnergySweep: the cell answers "saturated" with its aborted horizon's
	// latency and no pricing; it does not fail.
	res := EvalCellResult{
		Saturated:      sat,
		AvgLatencyClks: st.AvgPacketLatencyClks,
		P99LatencyClks: st.P99PacketLatencyClks,
		Cycles:         st.Cycles,
		Packets:        st.PacketsEjected,
	}
	if c.Energy && !sat {
		var err error
		if res.Run, res.CLEAR, err = env.price(st, c.Rate); err != nil {
			return fail(err)
		}
	}
	return res
}
