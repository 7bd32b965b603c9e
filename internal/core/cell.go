package core

import (
	"fmt"

	"repro/internal/dsent"
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

// Eval evaluates one serving cell in its two steps: Resolve and Simulate
// make the timing step, Price answers the cell from the run. The result is
// a pure function of the cell, sc and o over read-only cached inputs, so
// concurrent calls are bit-identical to serial ones. A failure is reported
// as "core: <point>: <cause>".
func Eval(c EvalCell, sc EnergySweepConfig, o Options) (EvalCellResult, error) {
	t, err := Resolve(c, sc, o)
	if err != nil {
		return EvalCellResult{}, err
	}
	return t.Price(t.Simulate())
}

// Timing is a cell resolved for its timing step: the cell, the sweep
// configuration it runs under and its fabric without an energy model,
// which is all the kernel reads. Cells whose timings are Alike simulate
// identically, so one Run answers them all.
type Timing struct {
	cell  EvalCell
	sc    EnergySweepConfig
	dsent dsent.Config
	f     fabric
}

// Resolve resolves a cell's fabric through the Options' network cache,
// without pricing it.
func Resolve(c EvalCell, sc EnergySweepConfig, o Options) (Timing, error) {
	if sc.Workload.SizeFlits <= 0 || sc.Workload.Cycles <= 0 {
		return Timing{}, fmt.Errorf("core: invalid cell workload %+v", sc.Workload)
	}
	o = c.options(o)
	f, err := o.resolve(c.Point, false)
	if err != nil {
		return Timing{}, fmt.Errorf("core: %v: %w", c.Point, err)
	}
	return Timing{cell: c, sc: sc, dsent: o.DSENT, f: f}, nil
}

// Alike reports whether two timings simulate identically: the same
// traffic under the same workload and simulator configuration, on fabrics
// that time alike (the same wiring, next hops and link latencies).
func (t Timing) Alike(u Timing) bool {
	a, b := t.cell, u.cell
	samePattern := (a.Pattern == nil) == (b.Pattern == nil) &&
		(a.Pattern == nil || a.Pattern.Name() == b.Pattern.Name())
	sameTrace := (a.Trace == nil) == (b.Trace == nil) && (a.Trace == nil || *a.Trace == *b.Trace)
	return samePattern && sameTrace && a.Rate == b.Rate &&
		t.sc.Workload == u.sc.Workload && t.sc.NoC == u.sc.NoC && t.f.timesAlike(u.f)
}

// Run is a finished timing step: the kernel's counters and whether the
// run saturated, or the failure that kept it from running. A Run is
// read-only, so any number of cells may be priced from it at once.
type Run struct {
	st  noc.Stats
	sat bool
	err error
}

// Simulate runs the timing step on a fresh simulator. Failure to drain is
// the saturation signal, exactly as in EnergySweep: it sets a flag, not an
// error. A failure stays in the Run, and Price reports it under the
// priced cell's own name.
func (t Timing) Simulate() Run {
	var r Run
	r.st, r.sat, r.err = t.simulate()
	return r
}

// simulate is Simulate's body.
func (t Timing) simulate() (noc.Stats, bool, error) {
	c, f := t.cell, t.f
	switch {
	case c.Pattern != nil && c.Trace != nil:
		return noc.Stats{}, false, fmt.Errorf("cell has both a pattern and a trace")
	case c.Pattern != nil:
		if c.Rate <= 0 {
			return noc.Stats{}, false, fmt.Errorf("pattern cell needs a positive rate, got %v", c.Rate)
		}
		base, err := patternBase(f, c.Pattern)
		if err != nil {
			return noc.Stats{}, false, err
		}
		return f.openLoop(nil, base, c.Rate, t.sc.Workload, t.sc.NoC, nil)
	case c.Trace != nil:
		pkts, err := TraceJob{Kernel: *c.Trace}.packets(f.net.NumNodes())
		if err != nil {
			return noc.Stats{}, false, err
		}
		st, err := simulate(nil, f.net, f.tab, t.sc.NoC, workload{pkts: pkts})
		sat, err := saturation(err)
		return st, sat, err
	default:
		return noc.Stats{}, false, fmt.Errorf("cell has neither a pattern nor a trace")
	}
}

// Price answers the timing's cell from r, a run of a timing Alike it, on
// the cell's own fabric: an Energy cell folds its energy model and prices
// the run, unless it saturated, in which case the cell answers with the
// aborted horizon's latency and no pricing.
func (t Timing) Price(r Run) (EvalCellResult, error) {
	res, err := t.price(r)
	if err != nil {
		return EvalCellResult{}, fmt.Errorf("core: %v: %w", t.cell.Point, err)
	}
	return res, nil
}

// price is Price's body; Price prefixes its errors with the point.
func (t Timing) price(r Run) (EvalCellResult, error) {
	if r.err != nil {
		return EvalCellResult{}, r.err
	}
	res := EvalCellResult{
		Saturated:      r.sat,
		AvgLatencyClks: r.st.AvgPacketLatencyClks,
		P99LatencyClks: r.st.P99PacketLatencyClks,
		Cycles:         r.st.Cycles,
		Packets:        r.st.PacketsEjected,
	}
	if !t.cell.Energy {
		return res, nil
	}
	f, err := t.f.priced(t.dsent)
	if err != nil || r.sat {
		return res, err
	}
	res.Run, res.CLEAR, err = f.price(r.st, t.cell.Rate)
	return res, err
}
