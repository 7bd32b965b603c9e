package core

import (
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// PatternSweepResult is one (topology kind, design point, pattern) cell of
// a sweep: the full load-latency curve plus the detected saturation
// throughput, the ExplorationResult-style row of the saturation dataset.
type PatternSweepResult struct {
	// Kind is the topology family the cell ran on (canonical; "mesh"
	// for sweeps predating the registry).
	Kind    topology.Kind
	Point   DesignPoint
	Pattern string
	// Curve holds one point per swept rate, in rate order.
	Curve []noc.LoadPoint
	// SaturationRate is the latency-knee offered load (see
	// noc.DetectSaturation); zero when the design never saturates within
	// the swept range.
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
// latency — the knee detector's baseline.
func (r PatternSweepResult) ZeroLoadLatencyClks() float64 {
	if len(r.Curve) == 0 {
		return 0
	}
	return r.Curve[0].AvgLatencyClks
}

// PatternSweep runs the topology-kind × design-point × pattern saturation
// matrix: every (kind, point, pattern) cell walks the rate ladder serially
// with the cycle-accurate simulator (noc.LoadLatencyCurveContext — the
// pool already fans out across cells) and locates the curve's latency
// knee with noc.DetectSaturation. Results come back kind-major,
// point-middle, pattern-minor and are bit-identical for any worker count;
// the first failure cancels the batch.
//
// Non-mesh kinds reject express design points at Build time; pass plain
// (Hops = 0) points for kind-portable sweeps, exactly as with ExploreKinds.
func PatternSweep(ctx context.Context, kinds []topology.Kind, points []DesignPoint, patterns []traffic.Pattern,
	sc EnergySweepConfig, o Options, pool runner.Config) ([]PatternSweepResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(kinds) == 0 || len(points) == 0 || len(patterns) == 0 {
		return nil, fmt.Errorf("core: pattern sweep needs kinds, points and patterns")
	}
	fabs, err := resolveFabrics(kinds, points, o, false)
	if err != nil {
		return nil, err
	}
	return sweepPatterns(ctx, fabs, patterns, pool,
		func(ctx context.Context, _ int, f fabric, pat traffic.Pattern, base *traffic.Matrix, sims *noc.SimPool) (PatternSweepResult, error) {
			curve, err := noc.LoadLatencyCurveContext(ctx, f.net, f.tab, base, sc.Rates, sc.Workload, sc.NoC,
				runner.Config{Workers: 1}, sims)
			if err != nil {
				return PatternSweepResult{}, err
			}
			r := PatternSweepResult{Kind: f.kind, Point: f.point, Pattern: pat.Name(), Curve: curve}
			r.SaturationRate, r.AtFloor, r.Saturates = noc.DetectSaturation(curve)
			return r, nil
		})
}
