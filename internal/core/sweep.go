package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dsent"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The sweep engine. Every cycle-accurate family in this package is an
// axis builder over two pieces: resolveFabrics turns the (kind, geometry,
// design point) axes into shared read-only fabrics, and simulate runs one
// workload on a pooled simulator for a fabric. sweepCells walks the
// fabric × workload matrix on the worker pool between them. Each sample
// kind has one body over simulate: openLoop (Bernoulli arrivals at one
// offered rate, walked by ladder) and a trace replay priced by
// Options.priceTrace (core.go).

// fabric is one resolved (kind, geometry, design point) environment: the
// built network, its routing table and, when the sweep prices energy, the
// folded energy model. All three are shared read-only across jobs.
type fabric struct {
	// kind is canonical (Build resolved it).
	kind  topology.Kind
	point DesignPoint
	// variant names the device variant the model prices (fault sweeps).
	variant string
	net     *topology.Network
	tab     *routing.Table
	model   *energy.Model
}

// String names the fabric in error messages.
func (f fabric) String() string {
	s := fmt.Sprintf("%v %v", f.kind, f.point)
	if f.variant != "" {
		s += " [" + f.variant + "]"
	}
	return s
}

// resolve resolves one design point on the Options' kind and geometry
// through the Options' cache; priced folds an energy model from the
// Options' DSENT configuration.
func (o Options) resolve(p DesignPoint, priced bool) (fabric, error) {
	net, tab, err := o.NetworkAndTable(p)
	if err != nil {
		return fabric{}, err
	}
	f := fabric{kind: net.Config.Kind, point: p, net: net, tab: tab}
	if priced {
		return f.priced(o.DSENT)
	}
	return f, nil
}

// priced returns the fabric with an energy model folded under cfg.
func (f fabric) priced(cfg dsent.Config) (fabric, error) {
	m, err := energy.NewModel(f.net, cfg)
	f.model = m
	return f, err
}

// resolveFabrics resolves the kind × point matrix, kind-major, up front:
// the sweep's jobs then share the fabrics read-only.
func resolveFabrics(kinds []topology.Kind, points []DesignPoint, o Options, priced bool) ([]fabric, error) {
	fabs := make([]fabric, 0, len(kinds)*len(points))
	for _, kind := range kinds {
		ko := o.WithKind(kind)
		for _, point := range points {
			f, err := ko.resolve(point, priced)
			if err != nil {
				return nil, fmt.Errorf("core: %v %v: %w", ko.Topology.Canonical().Kind, point, err)
			}
			fabs = append(fabs, f)
		}
	}
	return fabs, nil
}

// sweepCells runs cell over the fabric × workload matrix on the worker
// pool — fabric-major, workload-minor — recycling simulators through one
// batch-wide noc.SimPool. Each cell is a pure function of its index over
// read-only inputs and results are collected in index order, so the
// output is bit-identical for any worker count. A failing cell is named
// by its fabric and workload (name(j)) and cancels the batch.
func sweepCells[T any](ctx context.Context, fabs []fabric, works int, name func(j int) string, pool runner.Config,
	cell func(ctx context.Context, i int, f fabric, j int, sims *noc.SimPool) (T, error)) ([]T, error) {
	sims := noc.NewSimPool()
	return runner.Map(ctx, len(fabs)*works, pool, func(ctx context.Context, i int) (T, error) {
		f, j := fabs[i/works], i%works
		res, err := cell(ctx, i, f, j, sims)
		if err != nil {
			return res, fmt.Errorf("core: %v / %s: %w", f, name(j), err)
		}
		return res, nil
	})
}

// sweepPatterns is sweepCells over a traffic-pattern axis: each cell
// receives its pattern and the pattern's validated unit-rate matrix on the
// cell's fabric.
func sweepPatterns[T any](ctx context.Context, fabs []fabric, patterns []traffic.Pattern, pool runner.Config,
	cell func(ctx context.Context, i int, f fabric, pat traffic.Pattern, base *traffic.Matrix, sims *noc.SimPool) (T, error)) ([]T, error) {
	name := func(j int) string { return patterns[j].Name() }
	return sweepCells(ctx, fabs, len(patterns), name, pool,
		func(ctx context.Context, i int, f fabric, j int, sims *noc.SimPool) (T, error) {
			base, err := patternBase(f, patterns[j])
			if err != nil {
				var zero T
				return zero, err
			}
			return cell(ctx, i, f, patterns[j], base, sims)
		})
}

// workload is one simulation's traffic and wiring: an open-loop packet
// list, or a closed-loop batch when deps is non-nil, optionally under a
// fault profile (armed when it carries link probabilities) and with a
// passive observer attached.
type workload struct {
	pkts   []noc.Packet
	deps   [][]int
	faults noc.FaultProfile
	obs    noc.Observer
}

// simulate runs one workload on a simulator drawn from sims (nil builds a
// fresh one) and returns the simulator to the pool on every path. The
// error is the run's own — a noc.ErrSaturated run still returns the Stats
// of the aborted horizon — or a preparation failure; each caller decides
// what saturation means for its results.
func simulate(sims *noc.SimPool, net *topology.Network, tab *routing.Table, cfg noc.Config, w workload) (noc.Stats, error) {
	sim, err := sims.Get(net, tab, cfg)
	if err != nil {
		return noc.Stats{}, err
	}
	defer sims.Put(sim)
	if w.faults.LinkFlitErrorProb != nil {
		if err := sim.SetFaultProfile(&w.faults); err != nil {
			return noc.Stats{}, err
		}
	}
	if w.deps != nil {
		err = sim.InjectClosedLoop(w.pkts, w.deps)
	} else {
		err = sim.InjectAll(w.pkts)
	}
	if err != nil {
		return noc.Stats{}, err
	}
	sim.SetObserver(w.obs)
	return sim.Run()
}

// patternBase generates a pattern's unit-rate matrix on the fabric.
func patternBase(f fabric, pat traffic.Pattern) (*traffic.Matrix, error) {
	base, err := pat.Generate(f.net, 1)
	if err != nil {
		return nil, err
	}
	return base, base.Validate()
}

// saturation folds a run's noc.ErrSaturated into a flag: a run that fails
// to drain within the cycle cap keeps the Stats of its aborted horizon and
// reports saturated rather than an error.
func saturation(err error) (saturated bool, _ error) {
	if errors.Is(err, noc.ErrSaturated) {
		return true, nil
	}
	return false, err
}

// openLoop is the one open-loop sample: Bernoulli arrivals drawn from the
// fabric's unit-rate base matrix scaled to one offered rate, simulated with
// obs attached (nil for none), saturation folded into a flag.
func (f fabric) openLoop(sims *noc.SimPool, base *traffic.Matrix, rate float64, w noc.BernoulliWorkload,
	cfg noc.Config, obs noc.Observer) (noc.Stats, bool, error) {
	pkts, err := w.Generate(f.net, base.ScaledToMaxRate(rate))
	if err != nil {
		return noc.Stats{}, false, err
	}
	st, err := simulate(sims, f.net, f.tab, cfg, workload{pkts: pkts, obs: obs})
	sat, err := saturation(err)
	return st, sat, err
}

// ladder walks the rate ladder serially on one (fabric, pattern) cell — the
// pool already fans out across cells — and summarizes each drained sample,
// pricing it when the fabric carries an energy model. Saturated samples
// carry no latency or energy.
func (f fabric) ladder(ctx context.Context, sims *noc.SimPool, base *traffic.Matrix, sc EnergySweepConfig) ([]EnergyPoint, error) {
	pts := make([]EnergyPoint, 0, len(sc.Rates))
	for _, rate := range sc.Rates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, sat, err := f.openLoop(sims, base, rate, sc.Workload, sc.NoC, nil)
		ep := EnergyPoint{Rate: rate, Saturated: sat}
		if err == nil && !sat {
			ep.AvgLatencyClks, ep.P99LatencyClks = st.AvgPacketLatencyClks, st.P99PacketLatencyClks
			if f.model != nil {
				ep.Run, ep.CLEAR, err = f.price(st, rate)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("rate %v: %w", rate, err)
		}
		pts = append(pts, ep)
	}
	return pts, nil
}

// price prices a drained run with the fabric's energy model and evaluates
// the simulated CLEAR at the offered rate.
func (f fabric) price(st noc.Stats, rate float64) (energy.RunEnergy, energy.CLEAR, error) {
	run, err := f.model.Price(st)
	if err != nil {
		return energy.RunEnergy{}, energy.CLEAR{}, err
	}
	c, err := f.model.SimulatedCLEAR(st, rate)
	return run, c, err
}
