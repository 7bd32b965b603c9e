package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dsent"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

// FaultSweepConfig parameterizes an availability / CLEAR-degradation sweep.
type FaultSweepConfig struct {
	// Rates is the ascending per-link fault-probability ladder. The first
	// entry must be 0: it is the healthy reference every other rate's
	// CLEAR degradation is measured against, and with the baseline device
	// variant its runs are bit-identical to the fault-free simulator.
	Rates []float64
	// TransientFraction and Epochs shape the fault schedules
	// (fault.Config); the workload horizon below runs once per epoch.
	TransientFraction float64
	Epochs            int
	// Load is the offered peak per-node injection rate in flits/cycle.
	Load float64
	// Workload shapes each epoch's open-loop arrivals; Workload.Cycles is
	// the per-epoch horizon and Workload.Seed the arrival-seed base.
	Workload noc.BernoulliWorkload
	// NoC configures the cycle-accurate simulator.
	NoC noc.Config
	// Thermal is the drift model (fault.ThermalConfig); its
	// BaseFlitErrorProb is overridden per cell with the device variant's
	// error floor (dsent.LookupVariant).
	Thermal fault.ThermalConfig
	// RetryLimit bounds per-hop retransmissions (0 = retry forever, the
	// guaranteed-delivery mode; see noc.FaultProfile).
	RetryLimit int
	// Seed is the base of the sweep's fault-randomness chain (see the
	// FaultSweep seed contract).
	Seed int64
}

// DefaultFaultSweep returns a ladder from healthy to heavily degraded on
// the cycle-accurate scale: four epochs per rate, a moderate load well
// under mesh saturation, bounded retries so severed-pair traffic fails
// loudly instead of spinning forever.
func DefaultFaultSweep() FaultSweepConfig {
	cfg := noc.DefaultConfig()
	cfg.MaxCycles = 200000
	return FaultSweepConfig{
		Rates:             []float64{0, 0.02, 0.05, 0.1, 0.2},
		TransientFraction: 0.25,
		Epochs:            4,
		Load:              0.1,
		Workload:          noc.BernoulliWorkload{SizeFlits: 1, Cycles: 2000, Seed: 13},
		NoC:               cfg,
		Thermal:           fault.DefaultThermal(0),
		RetryLimit:        16,
		Seed:              1,
	}
}

// Validate checks the sweep parameters.
func (c FaultSweepConfig) Validate() error {
	if len(c.Rates) == 0 || c.Rates[0] != 0 {
		return fmt.Errorf("core: fault sweep rates must start at 0 (the healthy reference), got %v", c.Rates)
	}
	prev := -1.0
	for _, r := range c.Rates {
		if r <= prev || r > 1 {
			return fmt.Errorf("core: fault sweep rates must ascend within [0, 1], got %v", c.Rates)
		}
		prev = r
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("core: fault sweep with %d epochs", c.Epochs)
	}
	if c.Load <= 0 {
		return fmt.Errorf("core: fault sweep at non-positive load %v", c.Load)
	}
	if c.Workload.SizeFlits <= 0 || c.Workload.Cycles <= 0 {
		return fmt.Errorf("core: invalid fault sweep workload %+v", c.Workload)
	}
	if c.RetryLimit < 0 {
		return fmt.Errorf("core: negative retry limit %d", c.RetryLimit)
	}
	return c.Thermal.Validate()
}

// FaultPoint is one fault rate's measured outcome for a cell, aggregated
// over the schedule's epochs.
type FaultPoint struct {
	// FaultRate is the swept per-link fault probability.
	FaultRate float64
	// Availability is the epoch-mean fraction of ordered (src, dst) pairs
	// still connected by the surviving fabric.
	Availability float64
	// DownLinkFrac is the epoch-mean fraction of links down.
	DownLinkFrac float64
	// SaturatedEpochs counts epochs that failed to drain within the cap.
	SaturatedEpochs int
	// PacketsInjected / Delivered / Dropped account every generated
	// packet that had a route; Unroutable counts packets whose pair the
	// fabric no longer connects (never injected — the workload's offered
	// traffic lost to partition).
	PacketsInjected, PacketsDelivered, PacketsDropped, PacketsUnroutable int64
	// Retransmits is the total failed link traversals re-tried.
	Retransmits int64
	// AvgLatencyClks is the delivered-packet-weighted mean latency.
	AvgLatencyClks float64
	// FJPerBit is total energy (switching + static + thermal trimming
	// overhead) per delivered bit, in femtojoules.
	FJPerBit float64
	// TrimOverheadW is the epoch-mean thermal-trimming overhead and
	// MaxDrift the hottest drift state reached.
	TrimOverheadW, MaxDrift float64
	// CLEAR is the epoch-mean simulated eq. 2 value (epochs where it is
	// undefined — no delivered packets — are skipped); 0 when no epoch
	// produced one.
	CLEAR float64
	// CLEARDegradation is CLEAR relative to the cell's rate-0 point
	// (1 = undegraded; 0 when either side is undefined).
	CLEARDegradation float64
}

// FaultSweepResult is one (kind, design point, device variant, pattern)
// cell: availability and CLEAR degradation over the fault-rate ladder.
type FaultSweepResult struct {
	Kind    topology.Kind
	Point   DesignPoint
	Variant string
	Pattern string
	// Points holds one sample per swept fault rate, in ladder order.
	Points []FaultPoint
}

// PointLabel renders the design point for tables (DesignPoint.Label)
// tagged with the device variant.
func (r FaultSweepResult) PointLabel() string {
	label := r.Point.Label(r.Kind)
	if r.Variant != "" {
		label += " [" + r.Variant + "]"
	}
	return label
}

// FaultSweep runs the (kind × point × device variant × pattern) × fault
// rate matrix: each cell builds its fabric once, then walks the rate
// ladder serially (the pool fans out across cells). Per rate, a
// fault.Schedule derives the epoch fault masks, a fault.Rerouter rebuilds
// routing only at epochs whose mask actually changed, traffic to severed
// pairs is counted unroutable instead of injected, and the surviving
// packets run under a noc.FaultProfile whose per-link error probabilities
// come from the epoch-lagged thermal drift state seeded at the variant's
// error floor. Energy is priced per epoch with the drift's trimming
// overhead folded into static power.
//
// Seed contract: every random draw derives from Seed through
// runner.Seed chains — cellSeed = Seed(cfg.Seed, cellIndex), rateSeed =
// Seed(cellSeed, rateIndex), then per epoch e the arrival seed is
// Workload.Seed + Seed(rateSeed, 2e) for faulted rates (the healthy rate
// 0 keeps Workload.Seed + e so its arrivals are reproducible without the
// chain) and the corruption seed is Seed(rateSeed, 2e+1). No shared RNG
// state crosses jobs or epochs, so results are bit-identical for any
// worker count.
func FaultSweep(ctx context.Context, kinds []topology.Kind, points []DesignPoint, variants []string,
	patterns []traffic.Pattern, sc FaultSweepConfig, o Options, pool runner.Config) ([]FaultSweepResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(kinds) == 0 || len(points) == 0 || len(variants) == 0 || len(patterns) == 0 {
		return nil, fmt.Errorf("core: fault sweep needs kinds, points, variants and patterns")
	}
	fabs, err := resolveFabrics(kinds, points, o, false)
	if err != nil {
		return nil, err
	}
	// The variant axis prices each fabric under the device's DSENT
	// variant and seeds its thermal drift at the variant's error floor;
	// thermal[c] belongs to cells[c].
	cells := make([]fabric, 0, len(fabs)*len(variants))
	thermal := make([]fault.ThermalConfig, 0, cap(cells))
	for _, f := range fabs {
		for _, variant := range variants {
			dv, err := dsent.LookupVariant(variant)
			if err != nil {
				return nil, fmt.Errorf("core: %v: %w", f, err)
			}
			cfg := o.DSENT
			cfg.Variant = variant
			f.variant = variant
			vf, err := f.priced(cfg)
			if err != nil {
				return nil, fmt.Errorf("core: %v: %w", vf, err)
			}
			tc := sc.Thermal
			tc.BaseFlitErrorProb = dv.FlitErrorProb
			cells = append(cells, vf)
			thermal = append(thermal, tc)
		}
	}
	return sweepPatterns(ctx, cells, patterns, pool,
		func(ctx context.Context, i int, f fabric, pat traffic.Pattern, base *traffic.Matrix, sims *noc.SimPool) (FaultSweepResult, error) {
			tm := base.ScaledToMaxRate(sc.Load)
			res := FaultSweepResult{
				Kind: f.kind, Point: f.point, Variant: f.variant, Pattern: pat.Name(),
				Points: make([]FaultPoint, 0, len(sc.Rates)),
			}
			cellSeed := runner.Seed(sc.Seed, i)
			for ri, rate := range sc.Rates {
				if err := ctx.Err(); err != nil {
					return FaultSweepResult{}, err
				}
				fp, err := faultPoint(f, tm, rate, runner.Seed(cellSeed, ri), thermal[i/len(patterns)], sc, o.Policy, sims)
				if err != nil {
					return FaultSweepResult{}, fmt.Errorf("fault rate %v: %w", rate, err)
				}
				res.Points = append(res.Points, fp)
			}
			// Degradation is relative to the healthy ladder floor (rate 0,
			// enforced by Validate).
			if ref := res.Points[0].CLEAR; ref > 0 {
				for pi := range res.Points {
					res.Points[pi].CLEARDegradation = res.Points[pi].CLEAR / ref
				}
			}
			return res, nil
		})
}

// faultPoint walks one fault rate's epochs for one cell.
func faultPoint(f fabric, tm *traffic.Matrix, rate float64, rateSeed int64, tc fault.ThermalConfig,
	sc FaultSweepConfig, policy routing.Policy, sims *noc.SimPool) (FaultPoint, error) {
	net, model := f.net, f.model
	sched, err := fault.NewSchedule(net, fault.Config{
		Rate:              rate,
		TransientFraction: sc.TransientFraction,
		Epochs:            sc.Epochs,
		Seed:              rateSeed,
	})
	if err != nil {
		return FaultPoint{}, err
	}
	rr := fault.NewRerouter(net, f.tab, policy)
	th, err := fault.NewThermal(net, tc)
	if err != nil {
		return FaultPoint{}, err
	}
	fp := FaultPoint{FaultRate: rate}
	var (
		mask        []bool
		probs       []float64
		view        *fault.View
		totalJ      float64
		totalBits   float64
		latWeighted float64
		clearSum    float64
		clearN      int
	)
	for e := 0; e < sc.Epochs; e++ {
		// Incremental reroute: only epochs whose mask changed resolve a
		// (possibly cached) new view; in between the previous one stands.
		if view == nil || sched.Changed(e) {
			mask = sched.DownAt(e, mask)
			if view, err = rr.View(mask); err != nil {
				return FaultPoint{}, err
			}
		}
		fp.Availability += view.Availability
		downs := 0
		for _, d := range mask {
			if d {
				downs++
			}
		}
		fp.DownLinkFrac += float64(downs) / float64(len(net.Links))

		// Epoch arrivals: the healthy reference keeps the plain
		// Workload.Seed + epoch chain (reproducible without the fault
		// machinery); faulted rates re-key per (cell, rate, epoch).
		w := sc.Workload
		if rate == 0 {
			w.Seed = sc.Workload.Seed + int64(e)
		} else {
			w.Seed = sc.Workload.Seed + runner.Seed(rateSeed, 2*e)
		}
		pkts, err := w.Generate(view.Net, tm)
		if err != nil {
			return FaultPoint{}, err
		}
		// Partitioned pairs cannot inject: their offered packets are the
		// availability loss, counted instead of simulated.
		if view.Unreachable > 0 {
			routable := pkts[:0]
			for _, p := range pkts {
				if view.Tab.Reachable(p.Src, p.Dst) {
					routable = append(routable, p)
				} else {
					fp.PacketsUnroutable++
				}
			}
			pkts = routable
		}
		fp.PacketsInjected += int64(len(pkts))

		// Epoch-lagged thermal feedback: this epoch's error probabilities
		// and trimming overhead derive from drift accumulated through the
		// previous epoch's measured activity.
		probs = th.LinkErrorProbs(probs)
		overheadW := th.TrimmingOverheadW()
		fp.TrimOverheadW += overheadW

		st, runErr := simulate(sims, view.Net, view.Tab, sc.NoC, workload{pkts: pkts,
			faults: noc.FaultProfile{
				LinkFlitErrorProb: probs,
				Seed:              runner.Seed(rateSeed, 2*e+1),
				RetryLimit:        sc.RetryLimit,
			}})
		if runErr != nil {
			if !errors.Is(runErr, noc.ErrSaturated) {
				return FaultPoint{}, runErr
			}
			fp.SaturatedEpochs++
		}
		fp.PacketsDelivered += st.PacketsEjected
		fp.PacketsDropped += st.PacketsDropped
		fp.Retransmits += st.Activity.TotalRetransmits()
		latWeighted += st.AvgPacketLatencyClks * float64(st.PacketsEjected)
		if runErr == nil && st.Cycles > 0 {
			re, err := model.PriceWithStaticOverhead(st, overheadW)
			if err != nil {
				return FaultPoint{}, err
			}
			totalJ += re.TotalJ
			totalBits += re.BitsEjected
			if st.PacketsEjected > 0 {
				c, err := model.SimulatedCLEARWithOverhead(st, sc.Load, overheadW)
				if err == nil {
					clearSum += c.Value
					clearN++
				}
			}
		}
		if st.Cycles > 0 {
			if err := th.Advance(st); err != nil {
				return FaultPoint{}, err
			}
		}
	}
	ep := float64(sc.Epochs)
	fp.Availability /= ep
	fp.DownLinkFrac /= ep
	fp.TrimOverheadW /= ep
	fp.MaxDrift = th.MaxDrift()
	if fp.PacketsDelivered > 0 {
		fp.AvgLatencyClks = latWeighted / float64(fp.PacketsDelivered)
	}
	if totalBits > 0 {
		fp.FJPerBit = totalJ / totalBits / units.Femto
	}
	if clearN > 0 {
		fp.CLEAR = clearSum / float64(clearN)
	}
	return fp, nil
}
