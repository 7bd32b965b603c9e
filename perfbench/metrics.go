package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// metricDef declares one printed metric; BENCHMARK.json at the root of the
// repository lists the same names and units.
type metricDef struct {
	name, unit string
	// ledger marks the per-round self times that, summed, equal the
	// traced wall time.
	ledger bool
}

// endToEnd are printed by an untraced run (-trace 0).
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "alloc_mb", unit: "MB"},
	{name: "qps", unit: "1/s"},
	{name: "p50_ms", unit: "ms"},
	{name: "p99_ms", unit: "ms"},
}

// perLayer are printed by a traced run (-trace 1). Times are per round
// unless marked as set-up; counts are per round.
var perLayer = []metricDef{
	// Set-up: building the networks, routing tables and Soteriou matrices.
	{name: "topology.build_s", unit: "s"},
	{name: "routing.build_s", unit: "s"},
	{name: "routing.builds", unit: "count"},
	{name: "traffic.soteriou_s", unit: "s"},
	// Self time per layer in a round.
	{name: "link.sweep_s", unit: "s", ledger: true},
	{name: "analytic.eval_s", unit: "s", ledger: true},
	{name: "optical.project_s", unit: "s", ledger: true},
	{name: "traffic.gen_s", unit: "s", ledger: true},
	{name: "npb.gen_s", unit: "s", ledger: true},
	{name: "trace.packetize_s", unit: "s", ledger: true},
	{name: "taskgraph.gen_s", unit: "s", ledger: true},
	{name: "taskgraph.bound_s", unit: "s", ledger: true},
	{name: "noc.new_s", unit: "s", ledger: true},
	{name: "noc.inject_s", unit: "s", ledger: true},
	{name: "noc.run_s", unit: "s", ledger: true},
	{name: "noc.closedloop_run_s", unit: "s", ledger: true},
	{name: "energy.model_s", unit: "s", ledger: true},
	{name: "energy.price_s", unit: "s", ledger: true},
	{name: "core.price_run_s", unit: "s", ledger: true},
	{name: "report.write_s", unit: "s", ledger: true},
	{name: "serve.self_s", unit: "s", ledger: true},
	{name: "core.self_s", unit: "s", ledger: true},
	// Work counts per round.
	{name: "traffic.packets", unit: "count"},
	{name: "trace.packets", unit: "count"},
	{name: "noc.runs", unit: "count"},
	{name: "noc.saturated_runs", unit: "count"},
	{name: "noc.cycles", unit: "clks"},
	{name: "noc.flit_hops", unit: "count"},
	{name: "noc.makespan_clks", unit: "clks"},
	// Kernel speed.
	{name: "noc.ns_per_flit_hop", unit: "ns"},
	{name: "noc.ns_per_flit_hop_low", unit: "ns"},
	{name: "noc.ns_per_flit_hop_high", unit: "ns"},
	{name: "noc.flit_hops_per_s", unit: "1/s"},
	// Serving.
	{name: "serve.hit_ratio", unit: "ratio"},
	{name: "serve.evaluations", unit: "count"},
	{name: "serve.batches", unit: "count"},
	{name: "serve.mean_batch", unit: "count"},
	{name: "serve.rejected", unit: "count"},
	{name: "serve.evictions", unit: "count"},
	{name: "serve.hit_p50_us", unit: "us"},
	{name: "serve.miss_p50_ms", unit: "ms"},
	{name: "serve.miss_p99_ms", unit: "ms"},
	// Process and benchmark.
	{name: "proc.peak_rss_mb", unit: "MB"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_s", unit: "s"},
	{name: "bench.traced_wall_s", unit: "s"},
	{name: "bench.untraced_wall_s", unit: "s"},
	{name: "bench.trace_overhead_frac", unit: "ratio"},
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// digest hashes a canonical text rendering of simulated results: floats
// are written in their shortest exact form, so equal digests mean
// bit-identical results.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add writes one record.
func (d *digest) add(fields ...any) {
	for _, f := range fields {
		switch v := f.(type) {
		case float64:
			d.h.Write([]byte(strconv.FormatFloat(v, 'g', -1, 64)))
		default:
			fmt.Fprint(d.h, v)
		}
		d.h.Write([]byte{'|'})
	}
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

// digestsPath holds the digests recorded on the default seed.
func digestsPath(root string) string { return filepath.Join(root, "perfbench", "digests.json") }

func readDigests(root string) (map[string]string, error) {
	m := map[string]string{}
	buf, err := os.ReadFile(digestsPath(root))
	if errors.Is(err, fs.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsPath(root), err)
	}
	return m, nil
}

func writeDigests(root string, m map[string]string) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath(root), append(buf, '\n'), 0o644)
}

// workloads lists the benchmark's workloads in their documented order.
var workloads = []workload{paperWorkload, ladderWorkload, serveWorkload, collectivesWorkload}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
