package core

import (
	"context"

	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// PatternSweepResult is one (topology kind, design point, pattern) cell of
// a sweep: the full load-latency curve plus the detected saturation
// throughput, the ExplorationResult-style row of the saturation dataset.
type PatternSweepResult struct {
	// Kind is the topology family the cell ran on (canonical: Build
	// resolved it).
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
// with the cycle-accurate simulator — EnergySweep's ladder, unpriced — and
// locates the curve's latency knee with noc.DetectSaturation. Results come
// back kind-major, point-middle, pattern-minor and are bit-identical for
// any worker count; the first failure cancels the batch.
//
// Non-mesh kinds reject express design points at Build time; pass plain
// (Hops = 0) points for kind-portable sweeps, exactly as with ExploreKinds.
func PatternSweep(ctx context.Context, kinds []topology.Kind, points []DesignPoint, patterns []traffic.Pattern,
	sc EnergySweepConfig, o Options, pool runner.Config) ([]PatternSweepResult, error) {
	cells, err := ladderSweep(ctx, kinds, points, patterns, sc, o, pool, false)
	if err != nil {
		return nil, err
	}
	results := make([]PatternSweepResult, len(cells))
	for i, c := range cells {
		r := PatternSweepResult{Kind: c.Kind, Point: c.Point, Pattern: c.Pattern,
			Curve: make([]noc.LoadPoint, len(c.Points))}
		for j, p := range c.Points {
			r.Curve[j] = noc.LoadPoint{InjectionRate: p.Rate, AvgLatencyClks: p.AvgLatencyClks,
				P99LatencyClks: p.P99LatencyClks, Saturated: p.Saturated}
		}
		r.SaturationRate, r.AtFloor, r.Saturates = noc.DetectSaturation(r.Curve)
		results[i] = r
	}
	return results, nil
}
