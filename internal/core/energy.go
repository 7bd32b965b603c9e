package core

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// EnergySweepConfig parameterizes the open-loop load-ladder sweeps
// (PatternSweep, EnergySweep) and the serving cells (Eval).
type EnergySweepConfig struct {
	// Rates is the ascending offered-load grid in flits/cycle; the
	// ladder's latency-knee rule (detectSaturation) reads the first rate
	// as the zero-load baseline.
	Rates []float64
	// Workload shapes the open-loop arrivals at each point.
	Workload noc.BernoulliWorkload
	// NoC configures the cycle-accurate simulator.
	NoC noc.Config
}

// DefaultEnergySweep returns a ladder that resolves each pattern's knee
// in seconds on an 8×8 grid (the CLIs scale Options.Topology down to 8×8
// for cycle-accurate sweeps): rates from well below to well beyond mesh
// saturation, 1-flit packets over a 5000-cycle horizon.
func DefaultEnergySweep() EnergySweepConfig {
	cfg := noc.DefaultConfig()
	cfg.MaxCycles = 200000
	return EnergySweepConfig{
		Rates:    []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 5000, Seed: 13},
		NoC:      cfg,
	}
}

// Validate checks the sweep parameters.
func (c EnergySweepConfig) Validate() error {
	if len(c.Rates) == 0 {
		return fmt.Errorf("core: sweep with no rates")
	}
	prev := 0.0
	for _, r := range c.Rates {
		if r <= prev {
			return fmt.Errorf("core: sweep rates must ascend from above zero, got %v", c.Rates)
		}
		prev = r
	}
	return nil
}

// EnergyPoint is one (offered rate) sample of a latency–energy curve.
type EnergyPoint struct {
	// Rate is the offered peak per-node injection rate in flits/cycle.
	Rate float64
	// Saturated marks rates whose run failed to drain within the cycle
	// cap; such points carry no energy accounting.
	Saturated bool
	// AvgLatencyClks and P99LatencyClks summarize packet latency.
	AvgLatencyClks, P99LatencyClks float64
	// Run is the measured energy accounting (internal/energy).
	Run energy.RunEnergy
	// CLEAR is the simulated eq. 2 evaluation at this rate.
	CLEAR energy.CLEAR
	// Pareto marks samples on the latency–energy frontier of their
	// (kind, pattern) scenario: no other non-saturated sample of any
	// competing design point offers both lower-or-equal latency and
	// lower-or-equal fJ/bit with one strictly lower.
	Pareto bool
}

// EnergySweepResult is one (topology kind, design point, pattern) cell of
// a load-ladder sweep: the load-latency curve over the rate ladder, its
// latency knee, and — when EnergySweep priced it — the measured energy of
// every drained sample.
type EnergySweepResult struct {
	// Kind is the topology family the cell ran on (canonical: Build
	// resolved it).
	Kind    topology.Kind
	Point   DesignPoint
	Pattern string
	// StaticW and AreaM2 are the cell's network-level constants (zero
	// when the ladder ran unpriced).
	StaticW, AreaM2 float64
	// Points holds one sample per swept rate, in rate order.
	Points []EnergyPoint
	// SaturationRate is the latency-knee offered load (see
	// detectSaturation); zero when the design never saturates within the
	// swept range.
	SaturationRate float64
	// Saturates reports whether the knee lies inside the swept range.
	Saturates bool
	// AtFloor marks a cell whose lowest swept rate already saturated:
	// SaturationRate then only bounds capacity from above (the true knee
	// lies at or below the sweep floor) and must not be read — or
	// rendered — as a measured throughput.
	AtFloor bool
}

// ZeroLoadLatencyClks returns the curve's first (lowest-rate) average
// latency — the knee rule's baseline.
func (r EnergySweepResult) ZeroLoadLatencyClks() float64 {
	if len(r.Points) == 0 {
		return 0
	}
	return r.Points[0].AvgLatencyClks
}

// saturationLatencyFactor defines the latency-knee rule used by
// detectSaturation: a pattern's saturation throughput is the lowest
// offered load whose average packet latency exceeds this multiple of the
// curve's zero-load latency (the first swept point), or that fails to
// drain within the cycle cap. 3× is the conventional knee threshold in
// NoC load-latency methodology — past it, queueing delay dominates and
// latency grows without bound.
const saturationLatencyFactor = 3.0

// detectSaturation applies the latency-knee rule to a load-latency curve
// sampled at ascending rates. It returns the offered rate of the first
// saturated point. A curve whose lowest rate already fails to drain
// reports that rate with atFloor set: the true knee lies at or below the
// sweep floor, so the returned rate is an upper bound on capacity, not a
// measurement — consumers must render it "≤ rate", never as a measured
// throughput. An interior knee (the rule firing past the first point,
// including a first point whose latency merely trips the knee on a later
// comparison) reports atFloor false. ok is false only when the curve is
// empty or never saturates within the swept range (the returned rate is
// then zero and atFloor is false).
func detectSaturation(points []EnergyPoint) (rate float64, atFloor, ok bool) {
	if len(points) == 0 {
		return 0, false, false
	}
	if points[0].Saturated {
		return points[0].Rate, true, true
	}
	base := points[0].AvgLatencyClks
	for _, p := range points[1:] {
		if p.Saturated || p.AvgLatencyClks > saturationLatencyFactor*base {
			return p.Rate, false, true
		}
	}
	return 0, false, false
}

// PatternSweep runs the topology-kind × design-point × pattern saturation
// matrix: every (kind, point, pattern) cell walks the rate ladder serially
// with the cycle-accurate simulator — EnergySweep's ladder, unpriced — and
// carries the curve's latency knee. Results come back kind-major,
// point-middle, pattern-minor and are bit-identical for any worker count;
// the first failure cancels the batch.
//
// Non-mesh kinds reject express design points at Build time; pass plain
// (Hops = 0) points for kind-portable sweeps, exactly as with ExploreKinds.
func PatternSweep(ctx context.Context, kinds []topology.Kind, points []DesignPoint, patterns []traffic.Pattern,
	sc EnergySweepConfig, o Options, pool runner.Config) ([]EnergySweepResult, error) {
	return ladderSweep(ctx, kinds, points, patterns, sc, o, pool, false)
}

// EnergySweep runs the design-point × topology-kind × pattern × load
// matrix with the cycle-accurate simulator and the measured energy
// accounting: every (kind, point, pattern) cell walks the rate ladder
// serially (the pool already fans out across cells), recycling simulators
// through one batch-wide noc.SimPool, and prices each drained run with the
// cell's energy.Model. Results come back kind-major, point-middle,
// pattern-minor and are bit-identical for any worker count — each job is a
// pure function of its index over read-only inputs, the same determinism
// contract as Explore. After collection the latency–energy Pareto frontier
// of every (kind, pattern) scenario is marked across its competing design
// points. The first failure cancels the batch.
//
// Non-mesh kinds reject express design points at Build time; pass plain
// (Hops = 0) points for kind-portable sweeps, exactly as with ExploreKinds.
func EnergySweep(ctx context.Context, kinds []topology.Kind, points []DesignPoint,
	patterns []traffic.Pattern, sc EnergySweepConfig, o Options, pool runner.Config) ([]EnergySweepResult, error) {
	results, err := ladderSweep(ctx, kinds, points, patterns, sc, o, pool, true)
	if err != nil {
		return nil, err
	}
	markParetoFrontiers(results)
	return results, nil
}

// ladderSweep walks the rate ladder on every (kind, point, pattern) cell,
// kind-major, point-middle, pattern-minor, and locates each curve's
// latency knee; priced folds an energy model into every fabric, so each
// drained sample is priced and the cell carries its network-level
// constants.
func ladderSweep(ctx context.Context, kinds []topology.Kind, points []DesignPoint,
	patterns []traffic.Pattern, sc EnergySweepConfig, o Options, pool runner.Config, priced bool) ([]EnergySweepResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(kinds) == 0 || len(points) == 0 || len(patterns) == 0 {
		return nil, fmt.Errorf("core: load sweep needs kinds, points and patterns")
	}
	fabs, err := resolveFabrics(kinds, points, o, priced)
	if err != nil {
		return nil, err
	}
	return sweepPatterns(ctx, fabs, patterns, pool,
		func(ctx context.Context, _ int, f fabric, pat traffic.Pattern, base *traffic.Matrix, sims *noc.SimPool) (EnergySweepResult, error) {
			res := EnergySweepResult{Kind: f.kind, Point: f.point, Pattern: pat.Name()}
			if f.model != nil {
				res.StaticW, res.AreaM2 = f.model.StaticW(), f.model.AreaM2()
			}
			var err error
			if res.Points, err = f.ladder(ctx, sims, base, sc); err != nil {
				return res, err
			}
			res.SaturationRate, res.AtFloor, res.Saturates = detectSaturation(res.Points)
			return res, nil
		})
}

// markParetoFrontiers marks, for every (kind, pattern) scenario, the
// samples on the latency–energy Pareto frontier across all competing
// design points and rates. Dominance is (AvgLatencyClks, FJPerBit):
// a sample is dominated when another non-saturated sample is ≤ on both
// axes and < on at least one, so duplicated optima all stay marked. The
// pass is a deterministic function of the collected results.
func markParetoFrontiers(results []EnergySweepResult) {
	type scenario struct {
		kind    topology.Kind
		pattern string
	}
	byScenario := map[scenario][][2]int{} // (result index, point index)
	for ri := range results {
		key := scenario{results[ri].Kind, results[ri].Pattern}
		for pi := range results[ri].Points {
			p := &results[ri].Points[pi]
			if !p.Saturated && p.Run.FJPerBit > 0 {
				byScenario[key] = append(byScenario[key], [2]int{ri, pi})
			}
		}
	}
	for _, members := range byScenario {
		for _, m := range members {
			a := &results[m[0]].Points[m[1]]
			dominated := false
			for _, o := range members {
				b := &results[o[0]].Points[o[1]]
				if b.AvgLatencyClks <= a.AvgLatencyClks && b.Run.FJPerBit <= a.Run.FJPerBit &&
					(b.AvgLatencyClks < a.AvgLatencyClks || b.Run.FJPerBit < a.Run.FJPerBit) {
					dominated = true
					break
				}
			}
			a.Pareto = !dominated
		}
	}
}
