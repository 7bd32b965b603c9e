// Package report serializes experiment results to CSV so figures can be
// regenerated outside Go (the paper's plots are all simple series/bars).
// Each Write function emits one experiment family with a fixed, documented
// header row.
package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/optical"
	"repro/internal/stats"
	"repro/internal/tech"
	"repro/internal/units"
)

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteLinkSweep emits the Fig. 3 dataset:
// length_m, then CLEAR per technology.
func WriteLinkSweep(w io.Writer, pts []link.SweepPoint) error {
	cw := csv.NewWriter(w)
	header := []string{"length_m"}
	for _, t := range tech.Technologies {
		header = append(header, "clear_"+t.String())
	}
	header = append(header, "best")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range pts {
		row := []string{f(p.LengthM)}
		for _, t := range tech.Technologies {
			row = append(row, f(p.CLEAR[t]))
		}
		row = append(row, p.Best().String())
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteExploration emits the Fig. 5 / Table III / Table IV dataset: one row
// per design point with every CLEAR ingredient.
func WriteExploration(w io.Writer, results []core.ExplorationResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"base", "express", "hops",
		"clear", "capability_gbps_per_node", "latency_clks",
		"power_w", "static_w", "dynamic_w", "area_mm2",
		"r", "avg_utilization", "mean_hops", "express_flit_fraction",
	}); err != nil {
		return err
	}
	for _, r := range results {
		if err := cw.Write([]string{
			r.Point.Base.String(), r.Point.Express.String(), strconv.Itoa(r.Point.Hops),
			f(r.CLEAR), f(r.CapabilityGbpsPerNode), f(r.AvgLatencyClks),
			f(r.PowerW), f(r.StaticW), f(r.DynamicW), f(r.AreaM2 / units.MillimetreSq),
			f(r.R), f(r.AvgUtilization), f(r.MeanHops), f(r.ExpressFlitFraction),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTraceResults emits the Fig. 6 / Table V dataset: one row per
// (kernel, design point) run.
func WriteTraceResults(w io.Writer, results []core.TraceResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"kernel", "base", "express", "hops",
		"avg_latency_clks", "p50_clks", "p95_clks", "p99_clks",
		"dynamic_energy_j", "static_power_w",
		"packets", "flits", "cycles",
	}); err != nil {
		return err
	}
	for _, r := range results {
		if err := cw.Write([]string{
			r.Kernel.String(), r.Point.Base.String(), r.Point.Express.String(),
			strconv.Itoa(r.Point.Hops),
			f(r.AvgLatencyClks), f(r.Stats.P50PacketLatencyClks),
			f(r.Stats.P95PacketLatencyClks), f(r.Stats.P99PacketLatencyClks),
			f(r.DynamicEnergyJ), f(r.StaticPowerW),
			strconv.FormatInt(r.Stats.PacketsEjected, 10),
			strconv.FormatInt(r.Stats.FlitsEjected, 10),
			strconv.FormatInt(r.Stats.Cycles, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePatternSweep emits the synthetic-pattern saturation dataset: one
// row per (topology kind, design point, pattern, offered rate), plus the per-curve
// latency-knee saturation throughput so downstream plots can draw both
// the curves and the knee markers.
func WritePatternSweep(w io.Writer, results []core.EnergySweepResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"topology", "base", "express", "hops", "pattern",
		"injection_rate", "avg_latency_clks", "p99_latency_clks", "point_saturated",
		"saturation_rate", "saturates", "at_floor",
	}); err != nil {
		return err
	}
	for _, r := range results {
		for _, p := range r.Points {
			if err := cw.Write([]string{
				string(r.Kind), r.Point.Base.String(), r.Point.Express.String(), strconv.Itoa(r.Point.Hops),
				r.Pattern,
				f(p.Rate), f(p.AvgLatencyClks), f(p.P99LatencyClks),
				strconv.FormatBool(p.Saturated),
				f(r.SaturationRate), strconv.FormatBool(r.Saturates),
				strconv.FormatBool(r.AtFloor),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaturationTable renders the per-pattern saturation summary as an
// aligned text table: one row per (topology kind, design point, pattern)
// with the zero-load latency and the latency-knee saturation throughput
// ("-" when the design never saturates within the swept range; "≤rate"
// when the sweep floor itself saturated, so the knee was bounded, not
// measured). The numeric columns are right-aligned so magnitudes stay
// comparable next to design-point labels of any length.
func SaturationTable(results []core.EnergySweepResult) string {
	tbl := stats.NewTable("topology", "design point", "pattern", "zero-load (clk)", "saturation (flits/clk)").
		AlignRight(3, 4)
	for _, r := range results {
		sat := "-"
		if r.Saturates {
			sat = strconv.FormatFloat(r.SaturationRate, 'g', 4, 64)
			if r.AtFloor {
				sat = "≤" + sat
			}
		}
		tbl.AddRow(string(r.Kind), r.Point.Label(r.Kind), r.Pattern,
			strconv.FormatFloat(r.ZeroLoadLatencyClks(), 'f', 1, 64), sat)
	}
	return tbl.String()
}

// KindComparisonTable renders the cross-topology analytic comparison as
// an aligned text table: one row per (kind, design point) with the
// structural figures the kinds differ on and the CLEAR ingredients.
func KindComparisonTable(results []core.KindExploration) string {
	tbl := stats.NewTable("kind", "base", "chans", "maxports",
		"C (Gb/s)", "lat(clk)", "power(W)", "R", "CLEAR").
		AlignRight(2, 3, 4, 5, 6, 7, 8)
	for _, r := range results {
		tbl.AddRow(string(r.Kind), r.Point.Base.String(),
			strconv.Itoa(r.Channels), strconv.Itoa(r.MaxPorts),
			strconv.FormatFloat(r.CapabilityGbpsPerNode, 'f', 2, 64),
			strconv.FormatFloat(r.AvgLatencyClks, 'f', 1, 64),
			strconv.FormatFloat(r.PowerW, 'f', 3, 64),
			strconv.FormatFloat(r.R, 'f', 3, 64),
			strconv.FormatFloat(r.CLEAR, 'f', 4, 64))
	}
	return tbl.String()
}

// WriteEnergySweep emits the measured latency–energy dataset: one row per
// (topology kind, design point, pattern, offered rate) sample with the
// full component energy breakdown, the simulated CLEAR and the Pareto
// frontier mark.
func WriteEnergySweep(w io.Writer, results []core.EnergySweepResult) error {
	cw := csv.NewWriter(w)
	header := []string{
		"topology", "base", "express", "hops", "pattern", "injection_rate",
		"saturated", "avg_latency_clks", "p99_latency_clks", "cycles",
		"fj_per_bit", "dynamic_j", "static_j", "total_j", "avg_power_w",
	}
	for _, t := range tech.Technologies {
		header = append(header, "link_j_"+t.String())
	}
	header = append(header,
		"buffer_j", "crossbar_j", "modulator_j", "receiver_j", "serdes_j",
		"wire_j", "express_j", "amortized_dynamic_j",
		"clear_sim", "r_sim", "avg_utilization", "pareto",
	)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range results {
		for _, p := range r.Points {
			row := []string{
				string(r.Kind),
				r.Point.Base.String(), r.Point.Express.String(), strconv.Itoa(r.Point.Hops),
				r.Pattern, f(p.Rate),
				strconv.FormatBool(p.Saturated), f(p.AvgLatencyClks), f(p.P99LatencyClks),
				strconv.FormatInt(p.Run.Cycles, 10),
				f(p.Run.FJPerBit), f(p.Run.DynamicJ), f(p.Run.StaticJ), f(p.Run.TotalJ),
				f(p.Run.AvgPowerW),
			}
			for _, t := range tech.Technologies {
				row = append(row, f(p.Run.Dynamic.LinkJ[t]))
			}
			row = append(row,
				f(p.Run.Dynamic.BufferJ), f(p.Run.Dynamic.CrossbarJ),
				f(p.Run.Dynamic.ModulatorJ), f(p.Run.Dynamic.ReceiverJ),
				f(p.Run.Dynamic.SerdesJ), f(p.Run.Dynamic.WireJ), f(p.Run.Dynamic.ExpressJ),
				f(p.Run.AmortizedDynamicJ),
				f(p.CLEAR.Value), f(p.CLEAR.R), f(p.CLEAR.AvgUtilization),
				strconv.FormatBool(p.Pareto),
			)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// EnergyTable renders the measured latency–energy matrix as an aligned
// text table: one row per drained (kind, design point, pattern, rate)
// sample, frontier rows marked with '*' ("drained" — saturated rates
// render a dash row instead of numbers).
func EnergyTable(results []core.EnergySweepResult) string {
	tbl := stats.NewTable("topology", "design point", "pattern", "rate",
		"lat(clk)", "fJ/bit", "dyn(µJ)", "power(W)", "CLEAR", "front").
		AlignRight(3, 4, 5, 6, 7, 8)
	for _, r := range results {
		for _, p := range r.Points {
			if p.Saturated {
				tbl.AddRow(string(r.Kind), r.Point.Label(r.Kind), r.Pattern,
					strconv.FormatFloat(p.Rate, 'g', 4, 64), "-", "-", "-", "-", "-", "")
				continue
			}
			mark := ""
			if p.Pareto {
				mark = "*"
			}
			tbl.AddRow(string(r.Kind), r.Point.Label(r.Kind), r.Pattern,
				strconv.FormatFloat(p.Rate, 'g', 4, 64),
				strconv.FormatFloat(p.AvgLatencyClks, 'f', 1, 64),
				strconv.FormatFloat(p.Run.FJPerBit, 'f', 0, 64),
				strconv.FormatFloat(p.Run.DynamicJ*1e6, 'f', 3, 64),
				strconv.FormatFloat(p.Run.AvgPowerW, 'f', 3, 64),
				strconv.FormatFloat(p.CLEAR.Value, 'f', 4, 64),
				mark)
		}
	}
	return tbl.String()
}

// ParetoTable renders only the latency–energy frontier: for each
// (kind, pattern) scenario the non-dominated samples across all competing
// design points, in ascending latency order (energy therefore descends —
// the shape of the trade-off curve read top to bottom).
func ParetoTable(results []core.EnergySweepResult) string {
	type row struct {
		kind          string
		point         string
		pattern       string
		rate, lat, fj float64
		clear         float64
	}
	var rows []row
	for _, r := range results {
		for _, p := range r.Points {
			if p.Pareto {
				rows = append(rows, row{string(r.Kind), r.Point.Label(r.Kind), r.Pattern,
					p.Rate, p.AvgLatencyClks, p.Run.FJPerBit, p.CLEAR.Value})
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].kind != rows[j].kind {
			return rows[i].kind < rows[j].kind
		}
		if rows[i].pattern != rows[j].pattern {
			return rows[i].pattern < rows[j].pattern
		}
		return rows[i].lat < rows[j].lat
	})
	tbl := stats.NewTable("topology", "pattern", "design point", "rate",
		"lat(clk)", "fJ/bit", "CLEAR").AlignRight(3, 4, 5, 6)
	for _, r := range rows {
		tbl.AddRow(r.kind, r.pattern, r.point,
			strconv.FormatFloat(r.rate, 'g', 4, 64),
			strconv.FormatFloat(r.lat, 'f', 1, 64),
			strconv.FormatFloat(r.fj, 'f', 0, 64),
			strconv.FormatFloat(r.clear, 'f', 4, 64))
	}
	return tbl.String()
}

// WriteFaultSweep emits the reliability dataset: one row per (topology,
// design point, device variant, pattern, fault rate) sample with the
// availability, delivery and CLEAR-degradation measurements.
func WriteFaultSweep(w io.Writer, results []core.FaultSweepResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"topology", "base", "express", "hops", "variant", "pattern",
		"fault_rate", "availability", "down_link_frac", "saturated_epochs",
		"packets_injected", "packets_delivered", "packets_dropped", "packets_unroutable",
		"retransmits", "avg_latency_clks", "fj_per_bit",
		"trim_overhead_w", "max_drift", "clear_sim", "clear_degradation",
	}); err != nil {
		return err
	}
	for _, r := range results {
		for _, p := range r.Points {
			if err := cw.Write([]string{
				string(r.Kind),
				r.Point.Base.String(), r.Point.Express.String(), strconv.Itoa(r.Point.Hops),
				r.Variant, r.Pattern,
				f(p.FaultRate), f(p.Availability), f(p.DownLinkFrac),
				strconv.Itoa(p.SaturatedEpochs),
				strconv.FormatInt(p.PacketsInjected, 10),
				strconv.FormatInt(p.PacketsDelivered, 10),
				strconv.FormatInt(p.PacketsDropped, 10),
				strconv.FormatInt(p.PacketsUnroutable, 10),
				strconv.FormatInt(p.Retransmits, 10),
				f(p.AvgLatencyClks), f(p.FJPerBit),
				f(p.TrimOverheadW), f(p.MaxDrift),
				f(p.CLEAR), f(p.CLEARDegradation),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// FaultTable renders the availability / CLEAR-degradation matrix as an
// aligned text table: one row per (cell, fault rate) sample.
func FaultTable(results []core.FaultSweepResult) string {
	tbl := stats.NewTable("topology", "design point", "pattern", "fault",
		"avail", "unroutable", "dropped", "retx", "lat(clk)", "fJ/bit", "CLEAR×").
		AlignRight(3, 4, 5, 6, 7, 8, 9, 10)
	for _, r := range results {
		for _, p := range r.Points {
			tbl.AddRow(string(r.Kind), r.PointLabel(), r.Pattern,
				strconv.FormatFloat(p.FaultRate, 'g', 4, 64),
				strconv.FormatFloat(p.Availability, 'f', 4, 64),
				strconv.FormatInt(p.PacketsUnroutable, 10),
				strconv.FormatInt(p.PacketsDropped, 10),
				strconv.FormatInt(p.Retransmits, 10),
				strconv.FormatFloat(p.AvgLatencyClks, 'f', 1, 64),
				strconv.FormatFloat(p.FJPerBit, 'f', 0, 64),
				strconv.FormatFloat(p.CLEARDegradation, 'f', 3, 64))
		}
	}
	return tbl.String()
}

// WriteTaskGraphSweep emits the closed-loop task-graph dataset: one row
// per (topology kind, design point, graph) cell with the end-to-end
// makespan, its contention-free lower bound and the stretch between them.
func WriteTaskGraphSweep(w io.Writer, results []core.TaskGraphResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"topology", "base", "express", "hops", "graph",
		"messages", "total_flits", "makespan_clks", "lower_bound_clks",
		"stretch", "avg_latency_clks", "p99_latency_clks", "cycles",
	}); err != nil {
		return err
	}
	for _, r := range results {
		if err := cw.Write([]string{
			string(r.Kind), r.Point.Base.String(), r.Point.Express.String(), strconv.Itoa(r.Point.Hops),
			r.Graph,
			strconv.Itoa(r.Messages), strconv.FormatInt(r.TotalFlits, 10),
			strconv.FormatInt(r.MakespanClks, 10), strconv.FormatInt(r.LowerBoundClks, 10),
			f(r.Stretch), f(r.AvgLatencyClks), f(r.P99LatencyClks),
			strconv.FormatInt(r.Cycles, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TaskGraphTable renders the closed-loop makespan matrix as an aligned
// text table: one row per (topology kind, design point, graph) with the
// makespan against its contention-free bound — stretch 1.00 means the
// network never delayed the schedule.
func TaskGraphTable(results []core.TaskGraphResult) string {
	tbl := stats.NewTable("topology", "design point", "graph", "msgs",
		"makespan (clk)", "bound (clk)", "stretch", "avg lat", "p99 lat").
		AlignRight(3, 4, 5, 6, 7, 8)
	for _, r := range results {
		tbl.AddRow(string(r.Kind), r.Point.Label(r.Kind), r.Graph,
			strconv.Itoa(r.Messages),
			strconv.FormatInt(r.MakespanClks, 10),
			strconv.FormatInt(r.LowerBoundClks, 10),
			strconv.FormatFloat(r.Stretch, 'f', 2, 64),
			strconv.FormatFloat(r.AvgLatencyClks, 'f', 1, 64),
			strconv.FormatFloat(r.P99LatencyClks, 'f', 1, 64))
	}
	return tbl.String()
}

// WriteRadar emits the Fig. 8 dataset: one row per corner.
func WriteRadar(w io.Writer, radar optical.Radar) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"corner", "energy_j_per_bit", "latency_clks", "area_mm2",
		"mean_path_loss_db", "worst_path_loss_db",
	}); err != nil {
		return err
	}
	rows := []struct {
		name string
		p    optical.Projection
	}{
		{"electronic", radar.Electronic},
		{"all_photonic", radar.Photonic},
		{"all_hyppi", radar.HyPPI},
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			r.name, f(r.p.EnergyPerBitJ), f(r.p.LatencyClks),
			f(r.p.AreaM2 / units.MillimetreSq),
			f(r.p.MeanPathLossDB), f(r.p.WorstPathLossDB),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSONLine renders v as one compact JSON line without a trailing
// newline: no indentation, no HTML escaping (the wire protocol is not
// HTML, so <, > and & stay literal). For struct inputs the encoding is
// byte-stable — fields render in declaration order with Go's
// shortest-round-trip float formatting — which is what lets the serving
// layer (internal/serve) promise bit-identical responses for identical
// queries and pin them in golden files. Map inputs sort their keys (the
// encoding/json contract) and are equally stable.
func JSONLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// Check validates that a CSV stream parses and has the expected column
// count on every row; used by the orchestrator as a write-through sanity
// check.
func Check(r io.Reader) (rows int, err error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("report: empty CSV")
	}
	return len(recs) - 1, nil
}
