package core

import (
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TelemetrySweepConfig parameterizes an instrumented sweep: every
// (design point, pattern) cell runs once at Rate with a telemetry
// collector attached — sampled packet tracing plus the windowed probe
// census — instead of walking a rate ladder.
type TelemetrySweepConfig struct {
	// Rate is the offered peak per-node injection rate in flits/cycle.
	Rate float64
	// Workload shapes the open-loop arrivals (exactly the pattern sweep's
	// generator, so a telemetry run reproduces the sweep point it
	// explains).
	Workload noc.BernoulliWorkload
	// NoC configures the cycle-accurate simulator.
	NoC noc.Config
	// Telemetry configures each cell's collector. Its Seed is the sweep
	// base: cell i samples with runner.Seed(Seed, i), so the traced set
	// is a pure function of (base seed, cell index, packet index) and the
	// sweep is bit-identical for any worker count.
	Telemetry telemetry.Config
}

// DefaultTelemetrySweep instruments the pattern sweep's mid-load point:
// 5% packet sampling and a 200-cycle probe window on the 8×8 workload.
func DefaultTelemetrySweep() TelemetrySweepConfig {
	ps := DefaultEnergySweep()
	return TelemetrySweepConfig{
		Rate:     0.1,
		Workload: ps.Workload,
		NoC:      ps.NoC,
		Telemetry: telemetry.Config{
			SampleRate:      0.05,
			Seed:            101,
			ProbeWindowClks: 200,
		},
	}
}

// Validate checks the sweep parameters.
func (c TelemetrySweepConfig) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("core: telemetry sweep rate %v must be positive", c.Rate)
	}
	return c.Telemetry.Validate()
}

// TelemetryResult is one instrumented (kind, design point, pattern) cell.
type TelemetryResult struct {
	// Kind is the topology family the cell ran on.
	Kind    topology.Kind
	Point   DesignPoint
	Pattern string
	// Rate is the offered load the cell ran at.
	Rate float64
	// Saturated marks a cell that failed to drain within the cycle cap;
	// its Stats, Trace and Probes cover the run up to the cap.
	Saturated bool
	// Stats is the run's full kernel census — bit-identical to the same
	// run without telemetry attached (the observer is passive).
	Stats noc.Stats
	// Trace holds the sampled packet spans; Probes the windowed series
	// (nil when the probe window is 0).
	Trace  *telemetry.Trace
	Probes *telemetry.Probes
}

// Label names the cell for trace exports and tables.
func (r TelemetryResult) Label() string {
	return fmt.Sprintf("%s / %s @ %.3g", r.Point.Label(r.Kind), r.Pattern, r.Rate)
}

// TelemetrySweep runs the design-point × pattern matrix once at the
// configured load with a telemetry collector attached to every cell. Cells
// run concurrently on the worker pool under the repository's determinism
// contract: each cell's collector seeds from runner.Seed(sc.Telemetry.Seed,
// cellIndex), packets sample by (cell seed, packet index) alone, and
// results are collected in (point-major, pattern-minor) order — so traces
// and probes are bit-identical for any worker count. A saturated cell is
// reported with its partial telemetry rather than failing the sweep, and
// the attached collector never perturbs the simulation: each cell's Stats
// match an uninstrumented run bit for bit
// (TestTelemetryObserverOffBitIdentical).
func TelemetrySweep(ctx context.Context, points []DesignPoint, patterns []traffic.Pattern,
	sc TelemetrySweepConfig, o Options, pool runner.Config) ([]TelemetryResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 || len(patterns) == 0 {
		return nil, fmt.Errorf("core: telemetry sweep needs points and patterns")
	}
	fabs, err := resolveFabrics([]topology.Kind{o.Topology.Kind}, points, o, false)
	if err != nil {
		return nil, err
	}
	return sweepPatterns(ctx, fabs, patterns, pool,
		func(_ context.Context, i int, f fabric, pat traffic.Pattern, base *traffic.Matrix, sims *noc.SimPool) (TelemetryResult, error) {
			tcfg := sc.Telemetry
			tcfg.Seed = runner.Seed(sc.Telemetry.Seed, i)
			col, err := telemetry.New(tcfg, f.net)
			if err != nil {
				return TelemetryResult{}, err
			}
			st, sat, err := f.openLoop(sims, base, sc.Rate, sc.Workload, sc.NoC, col)
			if err != nil {
				return TelemetryResult{}, err
			}
			col.Finish(st.Cycles)
			return TelemetryResult{Kind: f.kind, Point: f.point, Pattern: pat.Name(), Rate: sc.Rate,
				Saturated: sat, Stats: st, Trace: col.Trace(), Probes: col.Probes()}, nil
		})
}

// ChromeProcesses adapts telemetry results for telemetry.WriteChromeTrace:
// one labeled Perfetto process per cell, in sweep order.
func ChromeProcesses(results []TelemetryResult) []telemetry.ProcessTrace {
	procs := make([]telemetry.ProcessTrace, len(results))
	for i, r := range results {
		procs[i] = telemetry.ProcessTrace{Name: r.Label(), Trace: r.Trace}
	}
	return procs
}
