package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// WriteTelemetrySweep emits the windowed probe census in long form: one
// row per retained window per instrumented cell, with the window's
// throughput, link-utilization and occupancy summary statistics.
func WriteTelemetrySweep(w io.Writer, results []core.TelemetryResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"topology", "base", "express", "hops", "pattern", "rate",
		"window", "start_clk", "end_clk",
		"injected_flits", "ejected_flits",
		"mean_link_util", "max_link_util", "max_link",
		"mean_occupancy", "max_occupancy", "max_router",
	}); err != nil {
		return err
	}
	for _, r := range results {
		p := r.Probes
		if p == nil {
			continue
		}
		for i := 0; i < p.Windows(); i++ {
			win := p.Window(i)
			maxLink, maxUtil := win.MaxLink()
			maxRouter, maxOcc := win.MaxOccupancy()
			if err := cw.Write([]string{
				string(r.Kind),
				r.Point.Base.String(), r.Point.Express.String(), strconv.Itoa(r.Point.Hops),
				r.Pattern, f(r.Rate),
				strconv.FormatInt(win.Index(), 10),
				strconv.FormatInt(win.StartClk(), 10),
				strconv.FormatInt(win.EndClk(), 10),
				strconv.FormatInt(win.InjectedFlits(), 10),
				strconv.FormatInt(win.EjectedFlits(), 10),
				f(win.MeanLinkUtil()), f(maxUtil), strconv.Itoa(maxLink),
				f(win.MeanOccupancy()), strconv.FormatInt(maxOcc, 10), strconv.Itoa(maxRouter),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SpanTable renders the first limit sampled spans (0 = all) as an aligned
// text table: endpoints, latency, hop count, and the hop where the packet
// queued longest.
func SpanTable(tr *telemetry.Trace, limit int) string {
	tbl := stats.NewTable("pkt", "src", "dst", "flits", "release",
		"inject", "eject", "lat(clk)", "hops", "hotspot", "wait(clk)").
		AlignRight(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	n := len(tr.Spans)
	if limit > 0 && n > limit {
		n = limit
	}
	for i := 0; i < n; i++ {
		s := &tr.Spans[i]
		eject, lat := "-", "-"
		if s.EjectClk >= 0 {
			eject = strconv.FormatInt(s.EjectClk, 10)
			lat = strconv.FormatInt(s.LatencyClks(), 10)
		}
		if s.Dropped {
			lat = "drop"
		}
		hot, wait := s.MaxWaitClks()
		hotCell := "-"
		if hot >= 0 {
			hotCell = strconv.Itoa(int(hot))
		}
		tbl.AddRow(
			strconv.Itoa(int(s.Packet)),
			strconv.Itoa(int(s.Src)), strconv.Itoa(int(s.Dst)),
			strconv.Itoa(s.SizeFlits),
			strconv.FormatInt(s.ReleaseClk, 10),
			strconv.FormatInt(s.InjectClk, 10),
			eject, lat,
			strconv.Itoa(len(s.Hops)),
			hotCell, strconv.FormatInt(wait, 10))
	}
	out := tbl.String()
	if skipped := len(tr.Spans) - n; skipped > 0 {
		out += fmt.Sprintf("(+%d more spans)\n", skipped)
	}
	if tr.Truncated > 0 {
		out += fmt.Sprintf("(%d sampled packets dropped by the span cap)\n", tr.Truncated)
	}
	return out
}

// shadeRamp maps a [0,1] intensity onto a text shade.
const shadeRamp = " .:-=+*#%@"

func shade(v, max float64) byte {
	if max <= 0 || v <= 0 {
		return shadeRamp[0]
	}
	i := int(v / max * float64(len(shadeRamp)-1))
	if i >= len(shadeRamp) {
		i = len(shadeRamp) - 1
	}
	return shadeRamp[i]
}

// ProbeTimeline renders one line per retained window: throughput numbers
// plus shaded mean-utilization and mean-occupancy sparklines, the quick
// did-the-run-breathe view.
func ProbeTimeline(p *telemetry.Probes) string {
	tbl := stats.NewTable("window", "cycles", "inject", "eject",
		"util", "u", "occ", "o").AlignRight(0, 1, 2, 3, 4, 6)
	var maxUtil, maxOcc float64
	for i := 0; i < p.Windows(); i++ {
		w := p.Window(i)
		if u := w.MeanLinkUtil(); u > maxUtil {
			maxUtil = u
		}
		if o := w.MeanOccupancy(); o > maxOcc {
			maxOcc = o
		}
	}
	for i := 0; i < p.Windows(); i++ {
		w := p.Window(i)
		tbl.AddRow(
			strconv.FormatInt(w.Index(), 10),
			fmt.Sprintf("%d-%d", w.StartClk(), w.EndClk()-1),
			strconv.FormatInt(w.InjectedFlits(), 10),
			strconv.FormatInt(w.EjectedFlits(), 10),
			strconv.FormatFloat(w.MeanLinkUtil(), 'f', 4, 64),
			string(shade(w.MeanLinkUtil(), maxUtil)),
			strconv.FormatFloat(w.MeanOccupancy(), 'f', 2, 64),
			string(shade(w.MeanOccupancy(), maxOcc)))
	}
	out := tbl.String()
	if ev := p.Evicted(); ev > 0 {
		out += fmt.Sprintf("(%d older windows evicted by the ring bound)\n", ev)
	}
	return out
}

// PeakWindow returns the retained window with the highest mean link
// utilization (-1 when none are retained) — the natural window to render
// as a heatmap.
func PeakWindow(p *telemetry.Probes) int {
	best, bestUtil := -1, -1.0
	for i := 0; i < p.Windows(); i++ {
		if u := p.Window(i).MeanLinkUtil(); u > bestUtil {
			best, bestUtil = i, u
		}
	}
	return best
}

// ProbeOccupancyGrid renders one retained window's buffer occupancy over
// the node grid as a Width×Height shade map (row 0 at the top).
func ProbeOccupancyGrid(p *telemetry.Probes, net *topology.Network, window int) string {
	w := p.Window(window)
	var max float64
	for r := 0; r < p.NumRouters(); r++ {
		if o := float64(w.Occupancy(r)); o > max {
			max = o
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "occupancy at close of window %d (cycles %d-%d), max %.0f flits:\n",
		w.Index(), w.StartClk(), w.EndClk()-1, max)
	width, height := net.Config.Width, net.Config.Height
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			b.WriteByte(shade(float64(w.Occupancy(int(net.Node(x, y)))), max))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ProbeLinkHeatmap renders the per-window utilization of the topK busiest
// channels (by whole-run flit total): one row per retained window, one
// shade column per channel — where and when the hotspots move.
func ProbeLinkHeatmap(p *telemetry.Probes, net *topology.Network, topK int) string {
	totals := make([]int64, p.NumLinks())
	for i := 0; i < p.Windows(); i++ {
		w := p.Window(i)
		for l := range totals {
			totals[l] += w.LinkFlits(l)
		}
	}
	order := make([]int, len(totals))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if totals[order[a]] != totals[order[b]] {
			return totals[order[a]] > totals[order[b]]
		}
		return order[a] < order[b]
	})
	if topK > 0 && len(order) > topK {
		order = order[:topK]
	}
	var b strings.Builder
	b.WriteString("link utilization per window (busiest channels left):\n")
	for _, l := range order {
		lk := net.Links[l]
		fmt.Fprintf(&b, "  link %d: %d->%d (%s, %d flits)\n",
			l, lk.Src, lk.Dst, lk.Tech, totals[l])
	}
	for i := 0; i < p.Windows(); i++ {
		w := p.Window(i)
		fmt.Fprintf(&b, "w%-4d ", w.Index())
		for _, l := range order {
			b.WriteByte(shade(w.LinkUtil(l), 1))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
