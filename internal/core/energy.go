package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// EnergySweepConfig parameterizes the open-loop load-ladder sweeps
// (PatternSweep, EnergySweep) and the serving batches (EvalCells).
type EnergySweepConfig struct {
	// Rates is the ascending offered-load grid in flits/cycle; the
	// latency-knee detector (noc.DetectSaturation) reads the first rate
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
// an energy sweep: the measured latency–energy curve over the rate ladder.
type EnergySweepResult struct {
	Kind    topology.Kind
	Point   DesignPoint
	Pattern string
	// StaticW and AreaM2 are the cell's network-level constants.
	StaticW, AreaM2 float64
	// Points holds one sample per swept rate, in rate order.
	Points []EnergyPoint
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
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(kinds) == 0 || len(points) == 0 || len(patterns) == 0 {
		return nil, fmt.Errorf("core: energy sweep needs kinds, points and patterns")
	}
	fabs, err := resolveFabrics(kinds, points, o, true)
	if err != nil {
		return nil, err
	}
	results, err := sweepPatterns(ctx, fabs, patterns, pool,
		func(ctx context.Context, _ int, f fabric, pat traffic.Pattern, base *traffic.Matrix, sims *noc.SimPool) (EnergySweepResult, error) {
			res := EnergySweepResult{
				Kind:    f.kind,
				Point:   f.point,
				Pattern: pat.Name(),
				StaticW: f.model.StaticW(),
				AreaM2:  f.model.AreaM2(),
				Points:  make([]EnergyPoint, 0, len(sc.Rates)),
			}
			for _, rate := range sc.Rates {
				if err := ctx.Err(); err != nil {
					return EnergySweepResult{}, err
				}
				ep, err := energyPoint(f, base, rate, sc, sims)
				if err != nil {
					return EnergySweepResult{}, fmt.Errorf("rate %v: %w", rate, err)
				}
				res.Points = append(res.Points, ep)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	markParetoFrontiers(results)
	return results, nil
}

// energyPoint runs one offered-load sample and prices it. A run that fails
// to drain is flagged Saturated rather than failing the sweep.
func energyPoint(f fabric, base *traffic.Matrix, rate float64, sc EnergySweepConfig, sims *noc.SimPool) (EnergyPoint, error) {
	pkts, err := sc.Workload.Generate(f.net, base.ScaledToMaxRate(rate))
	if err != nil {
		return EnergyPoint{}, err
	}
	st, err := simulate(sims, f.net, f.tab, sc.NoC, workload{pkts: pkts})
	ep := EnergyPoint{Rate: rate}
	if err != nil {
		if !errors.Is(err, noc.ErrSaturated) {
			return EnergyPoint{}, err
		}
		ep.Saturated = true
		return ep, nil
	}
	ep.AvgLatencyClks = st.AvgPacketLatencyClks
	ep.P99LatencyClks = st.P99PacketLatencyClks
	if ep.Run, ep.CLEAR, err = f.price(st, rate); err != nil {
		return EnergyPoint{}, err
	}
	return ep, nil
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
