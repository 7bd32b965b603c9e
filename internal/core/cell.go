package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// EvalCell is one serving-layer evaluation request: a single (topology
// kind, geometry, design point, traffic source, offered load) sample of
// the matrices PatternSweep and EnergySweep walk as cross products. A
// cell carries its own kind, geometry and rate instead of a sweep's axes.
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
type EvalCellResult struct {
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

// Eval evaluates one serving cell: it resolves the cell's fabric through
// the Options' network cache (folding the energy model when the cell
// prices energy), runs its traffic source on a fresh simulator and prices
// the drained run. The result is a pure function of the cell, sc and o
// over read-only cached inputs, so concurrent calls are bit-identical to
// serial ones. A failure is reported as "core: <point>: <cause>".
func Eval(c EvalCell, sc EnergySweepConfig, o Options) (EvalCellResult, error) {
	if sc.Workload.SizeFlits <= 0 || sc.Workload.Cycles <= 0 {
		return EvalCellResult{}, fmt.Errorf("core: invalid cell workload %+v", sc.Workload)
	}
	res, err := evalCell(c, sc, o)
	if err != nil {
		return EvalCellResult{}, fmt.Errorf("core: %v: %w", c.Point, err)
	}
	return res, nil
}

// evalCell is Eval's body; Eval prefixes its errors with the point.
func evalCell(c EvalCell, sc EnergySweepConfig, o Options) (EvalCellResult, error) {
	f, err := c.options(o).resolve(c.Point, c.Energy)
	if err != nil {
		return EvalCellResult{}, err
	}
	var st noc.Stats
	var sat bool
	switch {
	case c.Pattern != nil && c.Trace != nil:
		return EvalCellResult{}, fmt.Errorf("cell has both a pattern and a trace")
	case c.Pattern != nil:
		if c.Rate <= 0 {
			return EvalCellResult{}, fmt.Errorf("pattern cell needs a positive rate, got %v", c.Rate)
		}
		base, err := patternBase(f, c.Pattern)
		if err != nil {
			return EvalCellResult{}, err
		}
		if st, sat, err = f.openLoop(nil, base, c.Rate, sc.Workload, sc.NoC, nil); err != nil {
			return EvalCellResult{}, err
		}
	case c.Trace != nil:
		pkts, err := TraceJob{Kernel: *c.Trace}.packets(f.net.NumNodes())
		if err != nil {
			return EvalCellResult{}, err
		}
		st, err = simulate(nil, f.net, f.tab, sc.NoC, workload{pkts: pkts})
		if sat, err = saturation(err); err != nil {
			return EvalCellResult{}, err
		}
	default:
		return EvalCellResult{}, fmt.Errorf("cell has neither a pattern nor a trace")
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
		if res.Run, res.CLEAR, err = f.price(st, c.Rate); err != nil {
			return EvalCellResult{}, err
		}
	}
	return res, nil
}
