// Command hyppi-benchcmp compares two `go test -bench` output files in the
// style of benchstat, with no external dependency: for every benchmark
// present in both files it prints old vs new time/op, B/op, allocs/op and
// the repository's custom metrics (points/s, flit-hops/s, …) with their
// percentage delta. `make bench-compare` runs it against the pinned
// BENCH_baseline.txt so a perf regression (or win) is visible in one table.
//
// Usage:
//
//	hyppi-benchcmp old.txt new.txt
//	hyppi-benchcmp -threshold 20 old.txt new.txt   # exit 1 on >20% time/op regressions
//	hyppi-benchcmp -fail-allocs 0 old.txt new.txt  # exit 1 on any allocs/op increase past the slack
//	hyppi-benchcmp -json cmp.json old.txt new.txt  # also write the table as JSON
//
// With a single file argument it just pretty-prints that file's metrics.
// Without -threshold the exit status is always 0 for timings (single-run
// benchmark numbers are noisy; the CI smoke job runs at -benchtime=1x and
// only wants the comparison rendered, not enforced). Allocation counts are
// near-deterministic at -benchtime=1x, so -fail-allocs gates them: an
// allocs/op increase fails when it exceeds both the given percentage of
// the baseline and allocSlack allocs (see allocsRegressed). -json writes
// the machine-readable comparison (every benchmark × metric row with its
// delta) for dashboards and artifact diffing. A gate failure exits 1; a
// usage or I/O error exits 2.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics maps unit → value for one benchmark, plus the iteration count.
type metrics struct {
	iters  int64
	values map[string]float64
	order  []string
}

// parseFile reads `go test -bench` output: lines of the form
//
//	BenchmarkName[-P]  <iters>  <value> <unit>  <value> <unit> ...
func parseFile(path string) (map[string]*metrics, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := make(map[string]*metrics)
	var names []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so runs from machines with
		// different core counts line up.
		if p := guessProcs(name); p > 0 {
			name = strings.TrimSuffix(name, fmt.Sprintf("-%d", p))
		}
		m := &metrics{iters: iters, values: make(map[string]float64)}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			if _, dup := m.values[unit]; !dup {
				m.order = append(m.order, unit)
			}
			m.values[unit] = v
		}
		if _, dup := out[name]; !dup {
			names = append(names, name)
		}
		out[name] = m
	}
	return out, names, sc.Err()
}

// guessProcs extracts the trailing -P GOMAXPROCS suffix, or 0 if absent.
func guessProcs(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return 0
	}
	return p
}

// delta renders the old→new change; lower is better for every standard
// unit, higher is better for the repository's rate metrics.
func delta(unit string, old, new float64) string {
	if old == 0 {
		return "   n/a"
	}
	pct := (new - old) / old * 100
	arrow := " "
	betterWhenHigher := strings.Contains(unit, "/s") || strings.Contains(unit, "speedup")
	switch {
	case pct < -0.05 && !betterWhenHigher, pct > 0.05 && betterWhenHigher:
		arrow = "+" // improvement
	case pct > 0.05 && !betterWhenHigher, pct < -0.05 && betterWhenHigher:
		arrow = "-" // regression
	}
	return fmt.Sprintf("%+7.1f%% %s", pct, arrow)
}

func human(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// row is one benchmark × metric comparison of the JSON report.
type row struct {
	Benchmark string  `json:"benchmark"`
	Metric    string  `json:"metric"`
	Old       float64 `json:"old"`
	New       float64 `json:"new"`
	DeltaPct  float64 `json:"delta_pct"`
}

// allocSlack is the absolute allocs/op growth the -fail-allocs gate always
// tolerates. Over 35 fresh-process -benchtime=1x runs of every root
// benchmark at -cpu 1 and 2, the widest allocs/op spread is 30
// (BenchmarkServeThroughput, whose concurrent clients hit the cache or
// join an in-flight evaluation by scheduling); every other benchmark
// spans at most 22. The slack sits just above that, so a re-pinned
// baseline cannot trip on scheduling noise; per-run garbage coming back
// (400–7,500 allocs/op per benchmark, as BENCH_baseline.txt pinned before
// the kernel's garbage cuts) still fails.
const allocSlack = 40

// allocsRegressed is the -fail-allocs rule: allocs/op grew from old to new
// by more than pct percent of old and by more than allocSlack allocs.
func allocsRegressed(old, new, pct float64) bool {
	return new-old > max(old*pct/100, allocSlack)
}

// errGate marks a comparison that ran but failed a -threshold or
// -fail-allocs gate (exit 1); every other error is a usage or I/O error
// (exit 2).
var errGate = errors.New("gate failed")

// exitCode maps run's result to the process exit status.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errGate):
		return 1
	default:
		return 2
	}
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-benchcmp:", err)
	}
	os.Exit(exitCode(err))
}

// run parses args, prints the listing or comparison to stdout and writes
// the -json file; flag errors and each failing allocs/op row go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hyppi-benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0,
		"exit 1 when any benchmark's ns/op regresses by more than this percentage (0 = never fail)")
	failAllocs := fs.Float64("fail-allocs", -1,
		fmt.Sprintf("exit 1 when any benchmark's allocs/op grows by more than this percentage "+
			"and by more than %d allocs (negative = disabled)", allocSlack))
	jsonPath := fs.String("json", "",
		"also write the comparison as JSON rows to this file")
	units := fs.String("units", "",
		"comma-separated unit filter (default: every unit present in both files)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return errors.New("usage: hyppi-benchcmp [-threshold pct] [-fail-allocs pct] [-json file] old.txt [new.txt]")
	}

	oldM, oldNames, err := parseFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if fs.NArg() == 1 {
		for _, name := range oldNames {
			m := oldM[name]
			fmt.Fprintf(stdout, "%s (%d iters)\n", name, m.iters)
			for _, u := range m.order {
				fmt.Fprintf(stdout, "    %-16s %s\n", u, human(m.values[u]))
			}
		}
		return nil
	}

	newM, newNames, err := parseFile(fs.Arg(1))
	if err != nil {
		return err
	}

	var filter map[string]bool
	if *units != "" {
		filter = make(map[string]bool)
		for _, u := range strings.Split(*units, ",") {
			filter[strings.TrimSpace(u)] = true
		}
	}

	fmt.Fprintf(stdout, "%-44s %-14s %14s %14s %10s\n", "benchmark", "metric", "old", "new", "delta")
	fmt.Fprintln(stdout, strings.Repeat("-", 100))
	var rows []row
	regressed := false
	var allocFailures []string
	for _, name := range newNames {
		om, ok := oldM[name]
		nm := newM[name]
		if !ok {
			fmt.Fprintf(stdout, "%-44s %s\n", name, "(new benchmark, no baseline)")
			continue
		}
		for _, u := range nm.order {
			if filter != nil && !filter[u] {
				continue
			}
			ov, ok := om.values[u]
			if !ok {
				continue
			}
			nv := nm.values[u]
			fmt.Fprintf(stdout, "%-44s %-14s %14s %14s  %s\n", name, u, human(ov), human(nv), delta(u, ov, nv))
			pct := 0.0
			if ov != 0 {
				pct = (nv - ov) / ov * 100
			}
			rows = append(rows, row{Benchmark: name, Metric: u, Old: ov, New: nv, DeltaPct: pct})
			if u == "ns/op" && *threshold > 0 && ov > 0 && pct > *threshold {
				regressed = true
			}
			if u == "allocs/op" && *failAllocs >= 0 && ov >= 0 && allocsRegressed(ov, nv, *failAllocs) {
				allocFailures = append(allocFailures,
					fmt.Sprintf("%s: allocs/op %s -> %s (%+.1f%%)", name, human(ov), human(nv), pct))
			}
		}
	}
	var dropped []string
	for _, name := range oldNames {
		if _, ok := newM[name]; !ok {
			dropped = append(dropped, name)
		}
	}
	sort.Strings(dropped)
	for _, name := range dropped {
		fmt.Fprintf(stdout, "%-44s %s\n", name, "(missing from new run)")
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	var fails []string
	if regressed {
		fails = append(fails, fmt.Sprintf("ns/op regression beyond %.0f%%", *threshold))
	}
	for _, f := range allocFailures {
		fmt.Fprintln(stderr, "hyppi-benchcmp:", f)
	}
	if len(allocFailures) > 0 {
		fails = append(fails, fmt.Sprintf("allocs/op regression beyond %.0f%% and %d allocs", *failAllocs, allocSlack))
	}
	if len(fails) > 0 {
		return fmt.Errorf("%w: %s", errGate, strings.Join(fails, "; "))
	}
	return nil
}
