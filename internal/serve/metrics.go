package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// latencySnapshot is a consistent copy of the service-latency histogram.
type latencySnapshot struct {
	bounds   []float64 // upper bound of each finite bucket
	counts   []int64   // per-bucket (non-cumulative) counts
	overflow int64     // samples at or beyond the last bound (+Inf bucket)
	sum      float64
}

func (e *Engine) latencySnapshotLocked() latencySnapshot {
	e.latMu.Lock()
	defer e.latMu.Unlock()
	snap := latencySnapshot{
		bounds:   make([]float64, e.latHist.Bins()),
		counts:   make([]int64, e.latHist.Bins()),
		overflow: e.latOver,
		sum:      e.latSum,
	}
	for i := 0; i < e.latHist.Bins(); i++ {
		_, hi := e.latHist.BinRange(i)
		snap.bounds[i] = hi
		snap.counts[i] = e.latHist.Bin(i)
	}
	return snap
}

// pf formats a metric value the Prometheus way: shortest exact decimal.
func pf(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteMetrics emits the engine's serving counters in the Prometheus text
// exposition format (version 0.0.4), dependency-free: HELP/TYPE comment
// pairs, counters and gauges under the hyppi_serve namespace, and the
// service-latency histogram with cumulative le buckets. Counter totals
// match Stats exactly — /metrics and /stats are two views of one census.
func (e *Engine) WriteMetrics(w io.Writer) error {
	st := e.Stats()
	lat := e.latencySnapshotLocked()
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, help, name, name, v)
	}
	gauge := func(name, help, value string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, value)
	}

	// The query counter splits by result class, one label per serving
	// outcome: hit (cache or single-flight join), miss (fresh
	// evaluation enqueued), rejected (queue-full backpressure).
	const q = "hyppi_serve_queries_total"
	fmt.Fprintf(&b, "# HELP %s Queries by serving outcome.\n# TYPE %s counter\n", q, q)
	fmt.Fprintf(&b, "%s{result=\"hit\"} %d\n", q, st.Hits)
	fmt.Fprintf(&b, "%s{result=\"miss\"} %d\n", q, st.Misses)
	fmt.Fprintf(&b, "%s{result=\"rejected\"} %d\n", q, st.Rejected)

	counter("hyppi_serve_evaluations_total",
		"Simulation cells evaluated (one per distinct canonical query).", st.Evaluations)
	counter("hyppi_serve_simulations_total",
		"Kernel runs (cells that time alike share one).", st.Simulations)
	counter("hyppi_serve_cache_evictions_total",
		"Completed cache entries dropped by the LRU bound.", st.Evictions)

	gauge("hyppi_serve_cache_entries",
		"Cached canonical queries (completed and in flight).",
		strconv.Itoa(st.CacheEntries))
	gauge("hyppi_serve_queue_depth",
		"Evaluations queued for a free evaluator.",
		strconv.Itoa(st.QueueDepth))
	draining := "0"
	if e.Draining() {
		draining = "1"
	}
	gauge("hyppi_serve_draining",
		"1 while the server is draining for graceful shutdown.", draining)
	gauge("hyppi_serve_uptime_seconds",
		"Seconds since the engine started.", pf(st.UptimeSeconds))

	const h = "hyppi_serve_query_duration_seconds"
	fmt.Fprintf(&b, "# HELP %s Query service time, request receipt to answer.\n# TYPE %s histogram\n", h, h)
	var cum int64
	for i, bound := range lat.bounds {
		cum += lat.counts[i]
		fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", h, pf(bound), cum)
	}
	cum += lat.overflow
	fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", h, cum)
	fmt.Fprintf(&b, "%s_sum %s\n", h, pf(lat.sum))
	fmt.Fprintf(&b, "%s_count %d\n", h, cum)

	_, err := io.WriteString(w, b.String())
	return err
}
