// Command perfbench is the repository benchmark: it runs one named workload
// of the HyPPI NoC reproduction in this process through the library's
// public entry points, checks the outputs, and prints every end-to-end
// metric by name with its unit. With -trace 1 it instead replays the
// workload by composing the layer calls the entry points make, with a span
// around each, and prints the per-layer ledger.
//
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A result file with provenance
// (Go version, VCS revision, GOMAXPROCS, CPU count, seed and workload
// parameters) is written under .bench_build/results. README.md in this
// directory lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeed is the seed whose digests are recorded in digests.json.
const defaultSeed = 1

func main() {
	workloadName := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "how long the timed phase runs")
	traceMode := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := flag.String("root", ".", "root of the checkout (golden files are read, results written, under it)")
	updateDigest := flag.Bool("update-digest", false, "record this run's digest in digests.json (default seed only)")
	flag.Parse()

	w, ok := lookupWorkload(*workloadName)
	switch {
	case !ok:
		fail("unknown workload %q (known: %s)", *workloadName, strings.Join(workloadNames(), ", "))
	case *traceMode != 0 && *traceMode != 1:
		fail("-trace must be 0 or 1, got %d", *traceMode)
	case *seconds <= 0:
		fail("-seconds must be positive, got %v", *seconds)
	case *updateDigest && *seed != defaultSeed:
		fail("-update-digest records the default seed %d only", defaultSeed)
	}
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{
		root:   *root,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *traceMode == 1,
	}
	out, err := execute(context.Background(), w, cfg)
	if err != nil {
		fail("%s: %v", w.name, err)
	}
	if err := finish(w, cfg, out, *updateDigest); err != nil {
		fail("%s: %v", w.name, err)
	}
}

// fail reports a setup or usage error and exits without a result line.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runConfig is one invocation's settings.
type runConfig struct {
	root   string
	seed   int64
	budget time.Duration
	traced bool
}

// workers sizes every worker pool: a serial pool repeats run to run on a
// shared 2-vCPU machine, a 2-worker pool does not.
const workers = 1

// procs is the GOMAXPROCS of every run. With one worker the work is
// serial, and a second P would run only the garbage collector's background
// work and, in serve, the client goroutines, which then wait on the
// neighbours of a second shared vCPU. Interleaved on one 2-vCPU host,
// paper rounds took 6.0-9.6 s at GOMAXPROCS 2 and 5.4-7.1 s at 1; serve's
// wall_s spread over ten seeds was 24% at 2 and 6% over five seeds at 1,
// at the same throughput.
const procs = 1

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish checks the digest against the recorded one, writes the result
// file and prints the result line.
func finish(w workload, cfg runConfig, out outcome, updateDigest bool) error {
	recorded, err := readDigests(cfg.root)
	if err != nil {
		return err
	}
	switch {
	case updateDigest:
		recorded[w.name] = out.digest
		if err := writeDigests(cfg.root, recorded); err != nil {
			return err
		}
	case cfg.seed == defaultSeed && recorded[w.name] != out.digest:
		out.digestMismatch = true
		out.problems = append(out.problems, fmt.Sprintf("digest %s differs from the recorded %q", out.digest, recorded[w.name]))
	}
	if out.digestMismatch {
		// A digest mismatch means the simulated results changed: every
		// operation of the workload counts as failed.
		out.failed = out.attempted
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if err := writeResultFile(w, cfg, out, res); err != nil {
		return err
	}
	fmt.Printf("%s seed=%d trace=%v rounds=%d latency_samples=%d digest=%s\n",
		w.name, cfg.seed, cfg.traced, out.rounds, out.samples, out.digest)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// provenance identifies the build and inputs behind a result file.
type provenance struct {
	GoVersion   string         `json:"go_version"`
	VCSRevision string         `json:"vcs_revision"`
	VCSModified string         `json:"vcs_modified"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Traced      bool           `json:"traced"`
	Params      map[string]any `json:"params"`
	Started     string         `json:"started"`
}

func buildProvenance(w workload, cfg runConfig) provenance {
	p := provenance{
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
		VCSModified: "unknown",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Workload:    w.name,
		Seed:        cfg.seed,
		Seconds:     cfg.budget.Seconds(),
		Traced:      cfg.traced,
		Params:      w.params,
		Started:     time.Now().UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	return p
}

// writeResultFile stores the run under .bench_build/results, and the spans
// of a traced run next to it as JSON lines.
func writeResultFile(w workload, cfg runConfig, out outcome, res result) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, btoi(cfg.traced))
	doc := struct {
		Provenance  provenance  `json:"provenance"`
		Result      result      `json:"result"`
		Digest      string      `json:"digest"`
		Problems    []string    `json:"problems,omitempty"`
		RoundWallS  []float64   `json:"round_wall_s"`
		RoundAllocB []float64   `json:"round_alloc_bytes"`
		OpMedianMS  []float64   `json:"op_median_ms"`
		RoundLatMS  [][]float64 `json:"round_latency_ms"`
		SetupS      []float64   `json:"setup_s"`
		SetupBatch  int         `json:"setup_batch"`
		Samples     int         `json:"latency_samples"`
	}{
		Provenance:  buildProvenance(w, cfg),
		Result:      res,
		Digest:      out.digest,
		Problems:    out.problems,
		RoundWallS:  out.roundWall,
		RoundAllocB: out.roundAlloc,
		OpMedianMS:  out.opMedianMS,
		RoundLatMS:  out.roundLatMS,
		SetupS:      out.setup,
		SetupBatch:  out.setupBatch,
		Samples:     out.samples,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if out.spans == nil {
		return nil
	}
	return writeSpans(filepath.Join(dir, base+".spans.jsonl"), out.spans)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
