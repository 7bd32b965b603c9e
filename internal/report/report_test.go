package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/tech"
	"repro/internal/topology"
)

func TestWriteLinkSweep(t *testing.T) {
	pts, err := core.LinkSweep()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLinkSweep(&buf, pts); err != nil {
		t.Fatal(err)
	}
	rows, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(pts) {
		t.Errorf("CSV rows %d, want %d", rows, len(pts))
	}
	if !strings.HasPrefix(buf.String(), "length_m,clear_Electronic,") {
		t.Errorf("header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestWriteExploration(t *testing.T) {
	o := core.DefaultOptions()
	res, err := core.Explore([]core.DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExploration(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Errorf("rows = %d", rows)
	}
	if !strings.Contains(buf.String(), "HyPPI,3") {
		t.Error("design point missing from CSV")
	}
}

func TestWriteTraceResults(t *testing.T) {
	o := core.DefaultOptions()
	k := npb.DefaultConfig(npb.LU)
	k.Iterations = 1
	res, err := core.RunTraceExperiment(k,
		core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		o, noc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceResults(&buf, []core.TraceResult{res}); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LU,Electronic") {
		t.Error("kernel row missing")
	}
}

func TestWriteRadar(t *testing.T) {
	radar, err := core.AllOpticalRadar(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRadar(&buf, radar); err != nil {
		t.Fatal(err)
	}
	rows, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Errorf("radar rows = %d, want 3", rows)
	}
	for _, corner := range []string{"electronic", "all_photonic", "all_hyppi"} {
		if !strings.Contains(buf.String(), corner) {
			t.Errorf("corner %s missing", corner)
		}
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	if _, err := Check(strings.NewReader("")); err == nil {
		t.Error("empty CSV must fail")
	}
	// csv.Reader already rejects ragged rows; verify the error surfaces.
	if _, err := Check(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged CSV must fail")
	}
}

// patternSweepResults fabricates a two-cell sweep without running the
// simulator: the writers only format.
func patternSweepResults() []core.EnergySweepResult {
	mesh := core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}
	hybrid := core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}
	curve := []core.EnergyPoint{
		{Rate: 0.05, AvgLatencyClks: 20, P99LatencyClks: 30},
		{Rate: 0.2, AvgLatencyClks: 90, P99LatencyClks: 200},
	}
	return []core.EnergySweepResult{
		{Kind: topology.Mesh, Point: mesh, Pattern: "tornado", Points: curve, SaturationRate: 0.2, Saturates: true},
		{Kind: topology.Torus, Point: hybrid, Pattern: "tornado", Points: curve[:1]},
		// The sweep floor itself saturated: the knee is an upper bound.
		{Kind: topology.Mesh, Point: mesh, Pattern: "hotspot",
			Points:         []core.EnergyPoint{{Rate: 0.05, Saturated: true}},
			SaturationRate: 0.05, Saturates: true, AtFloor: true},
	}
}

func TestWritePatternSweep(t *testing.T) {
	results := patternSweepResults()
	var buf bytes.Buffer
	if err := WritePatternSweep(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 4 { // 2 curve points + 1 + 1
		t.Errorf("CSV rows %d, want 4", rows)
	}
	if !strings.HasPrefix(buf.String(), "topology,base,express,hops,pattern,injection_rate,") {
		t.Errorf("header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasSuffix(header, ",saturation_rate,saturates,at_floor") {
		t.Errorf("knee columns missing from header: %q", header)
	}
	if !strings.Contains(buf.String(), ",0.05,true,true") {
		t.Errorf("at-floor row not flagged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), ",0.2,true,false") {
		t.Errorf("interior knee wrongly flagged at-floor:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "tornado") {
		t.Error("pattern name missing from rows")
	}
	// The kind column renders each row's Kind.
	if !strings.Contains(buf.String(), "\nmesh,") || !strings.Contains(buf.String(), "\ntorus,") {
		t.Errorf("kind column missing:\n%s", buf.String())
	}
}

func TestSaturationTable(t *testing.T) {
	out := SaturationTable(patternSweepResults())
	if !strings.Contains(out, "tornado") || !strings.Contains(out, "0.2") {
		t.Errorf("table missing sweep data:\n%s", out)
	}
	if !strings.Contains(out, "mesh") || !strings.Contains(out, "torus") {
		t.Errorf("table missing topology kinds:\n%s", out)
	}
	// The never-saturating row renders a dash, not a zero, and the
	// at-floor row renders a bound ("≤rate"), not a measured capacity.
	if !strings.Contains(out, "≤0.05") {
		t.Errorf("at-floor knee should render as a bound:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		switch {
		case strings.Contains(line, "torus") && !strings.HasSuffix(line, "-"):
			t.Errorf("unsaturated row should end with '-': %q", line)
		case strings.Contains(line, "tornado") && strings.Contains(line, "≤"):
			t.Errorf("interior knee must not render as a bound: %q", line)
		}
	}
}

// TestSaturationTableGoldenRendering pins the exact rendering against long
// topology and pattern names: numeric columns right-align against their
// column edge whatever the width of the label columns, and no line carries
// trailing padding.
func TestSaturationTableGoldenRendering(t *testing.T) {
	long := core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}
	results := []core.EnergySweepResult{
		{Kind: "extremely-long-topology-name", Point: long, Pattern: "hotspot-memory-controllers",
			Points:         []core.EnergyPoint{{Rate: 0.05, AvgLatencyClks: 23.4}},
			SaturationRate: 0.35, Saturates: true},
		{Kind: topology.Mesh, Point: core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
			Pattern: "uniform",
			Points:  []core.EnergyPoint{{Rate: 0.05, AvgLatencyClks: 123.4}}},
	}
	want := strings.Join([]string{
		"topology                      design point                  pattern                     zero-load (clk)  saturation (flits/clk)",
		"----------------------------  ----------------------------  --------------------------  ---------------  ----------------------",
		"extremely-long-topology-name  Electronic + HyPPI express@3  hotspot-memory-controllers             23.4                    0.35",
		"mesh                          Electronic mesh               uniform                               123.4                       -",
		"",
	}, "\n")
	if got := SaturationTable(results); got != want {
		t.Errorf("rendering drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// energySweepResults fabricates a small measured sweep for writer tests.
func energySweepResults() []core.EnergySweepResult {
	mesh := core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}
	hybrid := core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}
	mk := func(rate, lat, fj float64, pareto bool) core.EnergyPoint {
		p := core.EnergyPoint{Rate: rate, AvgLatencyClks: lat, P99LatencyClks: 2 * lat, Pareto: pareto}
		p.Run.Cycles = 5000
		p.Run.Seconds = 5000 / 0.78125e9
		p.Run.FJPerBit = fj
		p.Run.DynamicJ = 1e-6
		p.Run.StaticJ = 9e-6
		p.Run.TotalJ = 1e-5
		p.Run.AvgPowerW = 1.5
		p.CLEAR.Value = 0.1
		p.CLEAR.R = 1.1
		return p
	}
	return []core.EnergySweepResult{
		{Kind: topology.Mesh, Point: mesh, Pattern: "tornado", StaticW: 1.5, AreaM2: 2e-5,
			Points: []core.EnergyPoint{mk(0.05, 40, 60000, false), {Rate: 0.5, Saturated: true}}},
		{Kind: topology.Mesh, Point: hybrid, Pattern: "tornado", StaticW: 1.6, AreaM2: 2e-5,
			Points: []core.EnergyPoint{mk(0.05, 30, 55000, true)}},
	}
}

func TestWriteEnergySweep(t *testing.T) {
	results := energySweepResults()
	var buf bytes.Buffer
	if err := WriteEnergySweep(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Errorf("CSV rows %d, want 3", rows)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "topology,base,express,hops,pattern,injection_rate,saturated,") {
		t.Errorf("header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	for _, col := range []string{"fj_per_bit", "link_j_HyPPI", "modulator_j", "clear_sim", "pareto"} {
		if !strings.Contains(out, col) {
			t.Errorf("column %q missing from header", col)
		}
	}
	if !strings.Contains(out, "true") || !strings.Contains(out, "tornado") {
		t.Error("rows missing saturation/pattern data")
	}
}

func TestEnergyAndParetoTables(t *testing.T) {
	results := energySweepResults()
	etbl := EnergyTable(results)
	if !strings.Contains(etbl, "fJ/bit") || !strings.Contains(etbl, "60000") {
		t.Errorf("energy table missing data:\n%s", etbl)
	}
	if !strings.Contains(etbl, "*") {
		t.Errorf("energy table missing frontier mark:\n%s", etbl)
	}
	// The saturated rate renders dashes, not numbers.
	var satLine string
	for _, l := range strings.Split(etbl, "\n") {
		if strings.Contains(l, "0.5") {
			satLine = l
		}
	}
	if !strings.Contains(satLine, "-") {
		t.Errorf("saturated row should dash out: %q", satLine)
	}

	ptbl := ParetoTable(results)
	// Only the dominated plain-mesh sample (latency 40) drops out.
	if !strings.Contains(ptbl, "HyPPI express@3") || strings.Contains(ptbl, "40.0") {
		t.Errorf("pareto table should keep only frontier rows:\n%s", ptbl)
	}
	for i, l := range strings.Split(etbl+ptbl, "\n") {
		if l != strings.TrimRight(l, " ") {
			t.Errorf("line %d has trailing padding: %q", i, l)
		}
	}
}

// faultSweepResults builds a tiny two-cell matrix: a healthy baseline
// cell and a variant cell that degrades at the top of the rate ladder.
func faultSweepResults() []core.FaultSweepResult {
	mesh := core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}
	hybrid := core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}
	healthy := core.FaultPoint{FaultRate: 0, Availability: 1, PacketsInjected: 500,
		PacketsDelivered: 500, AvgLatencyClks: 21.5, FJPerBit: 61000,
		CLEAR: 2.5, CLEARDegradation: 1}
	degraded := core.FaultPoint{FaultRate: 0.2, Availability: 0.875, DownLinkFrac: 0.15,
		PacketsInjected: 500, PacketsDelivered: 440, PacketsDropped: 60,
		PacketsUnroutable: 55, Retransmits: 12, AvgLatencyClks: 29.0,
		FJPerBit: 68000, TrimOverheadW: 0.002, MaxDrift: 0.4,
		CLEAR: 1.9, CLEARDegradation: 0.76}
	return []core.FaultSweepResult{
		{Kind: topology.Mesh, Point: mesh, Variant: "", Pattern: "uniform",
			Points: []core.FaultPoint{healthy, degraded}},
		{Kind: topology.Mesh, Point: hybrid, Variant: "modetector", Pattern: "uniform",
			Points: []core.FaultPoint{healthy}},
	}
}

func TestWriteFaultSweep(t *testing.T) {
	results := faultSweepResults()
	var buf bytes.Buffer
	if err := WriteFaultSweep(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Errorf("CSV rows %d, want 3", rows)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "topology,base,express,hops,variant,pattern,fault_rate,") {
		t.Errorf("header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	for _, col := range []string{"availability", "packets_unroutable", "retransmits",
		"trim_overhead_w", "clear_degradation"} {
		if !strings.Contains(out, col) {
			t.Errorf("column %q missing from header", col)
		}
	}
	if !strings.Contains(out, "modetector") || !strings.Contains(out, "0.875") {
		t.Error("rows missing variant/availability data")
	}
}

func TestFaultTable(t *testing.T) {
	tbl := FaultTable(faultSweepResults())
	for _, want := range []string{"avail", "CLEAR×", "0.8750", "modetector", "uniform"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("fault table missing %q:\n%s", want, tbl)
		}
	}
	for i, l := range strings.Split(tbl, "\n") {
		if l != strings.TrimRight(l, " ") {
			t.Errorf("line %d has trailing padding: %q", i, l)
		}
	}
}

// taskGraphResults fabricates a two-cell closed-loop sweep: one schedule
// the network never delayed (stretch 1) and one congested cell.
func taskGraphResults() []core.TaskGraphResult {
	mesh := core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}
	hybrid := core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}
	return []core.TaskGraphResult{
		{Kind: topology.Mesh, Point: mesh, Graph: "moe-alltoall", Messages: 8064, TotalFlits: 16128,
			MakespanClks: 428, LowerBoundClks: 142, Stretch: 3.014,
			AvgLatencyClks: 31.5, P99LatencyClks: 88, Cycles: 428},
		{Kind: topology.Torus, Point: hybrid, Graph: "pipeline", Messages: 63, TotalFlits: 2016,
			MakespanClks: 632, LowerBoundClks: 632, Stretch: 1,
			AvgLatencyClks: 12.1, P99LatencyClks: 14, Cycles: 632},
	}
}

func TestWriteTaskGraphSweep(t *testing.T) {
	results := taskGraphResults()
	var buf bytes.Buffer
	if err := WriteTaskGraphSweep(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := Check(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Errorf("CSV rows %d, want 2", rows)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "topology,base,express,hops,graph,messages,total_flits,makespan_clks,lower_bound_clks,") {
		t.Errorf("header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if !strings.Contains(out, "moe-alltoall") || !strings.Contains(out, "428") {
		t.Error("rows missing graph/makespan data")
	}
	// The kind column renders each row's Kind.
	if !strings.Contains(out, "\nmesh,") || !strings.Contains(out, "\ntorus,") {
		t.Errorf("kind column missing:\n%s", out)
	}
}

func TestTaskGraphTable(t *testing.T) {
	tbl := TaskGraphTable(taskGraphResults())
	for _, want := range []string{"makespan (clk)", "stretch", "moe-alltoall", "3.01", "1.00",
		"Electronic + HyPPI express@3"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("task-graph table missing %q:\n%s", want, tbl)
		}
	}
	for i, l := range strings.Split(tbl, "\n") {
		if l != strings.TrimRight(l, " ") {
			t.Errorf("line %d has trailing padding: %q", i, l)
		}
	}
}

// TestJSONLine pins the wire-encoding contract the serve protocol builds
// on: compact single-line output, byte-stable across calls, HTML metas
// unescaped so messages read back verbatim.
func TestJSONLine(t *testing.T) {
	type row struct {
		Name string  `json:"name"`
		Rate float64 `json:"rate,omitempty"`
		Note string  `json:"note,omitempty"`
	}
	line, err := JSONLine(row{Name: "a<b>&c", Rate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"a<b>&c","rate":0.05}`
	if string(line) != want {
		t.Errorf("got %s, want %s", line, want)
	}
	again, err := JSONLine(row{Name: "a<b>&c", Rate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, again) {
		t.Errorf("unstable encoding: %s vs %s", line, again)
	}
	if bytes.ContainsAny(line, "\n") {
		t.Errorf("line contains a newline: %q", line)
	}
	if _, err := JSONLine(func() {}); err == nil {
		t.Error("unencodable value accepted")
	}
}
