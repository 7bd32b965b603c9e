package serve

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	promSample = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)
	promHelp = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promType = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

// parsePromText validates the exposition format line by line and returns
// sample values keyed by "name{labels}".
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case promHelp.MatchString(line):
		case promType.MatchString(line):
			m := promType.FindStringSubmatch(line)
			typed[m[1]] = m[2]
		case promSample.MatchString(line):
			m := promSample.FindStringSubmatch(line)
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q", i+1, m[3])
			}
			samples[m[1]+m[2]] = v
			// Every sample must belong to a TYPEd family (histogram
			// series carry the family name plus a suffix).
			base := m[1]
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suf)
			}
			if _, ok := typed[base]; !ok {
				t.Errorf("line %d: sample %q precedes its TYPE", i+1, m[1])
			}
		default:
			t.Errorf("line %d: not valid Prometheus text: %q", i+1, line)
		}
	}
	return samples
}

// TestMetricsFormatAndCounts: /metrics parses as Prometheus text format
// and its counters agree with Stats.
func TestMetricsFormatAndCounts(t *testing.T) {
	e := newTestEngine(t)
	for i := 0; i < 3; i++ {
		resp := e.Do(context.Background(), Request{ID: fmt.Sprint(i),
			Topology: "mesh", Width: 4, Height: 4,
			Pattern: "uniform", Load: 0.05, Want: WantLatency})
		if !resp.OK {
			t.Fatalf("query %d failed: %+v", i, resp.Error)
		}
	}

	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q missing format version", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, string(body))

	st := e.Stats()
	checks := map[string]float64{
		`hyppi_serve_queries_total{result="hit"}`:      float64(st.Hits),
		`hyppi_serve_queries_total{result="miss"}`:     float64(st.Misses),
		`hyppi_serve_queries_total{result="rejected"}`: float64(st.Rejected),
		`hyppi_serve_evaluations_total`:                float64(st.Evaluations),
		`hyppi_serve_simulations_total`:                float64(st.Simulations),
		`hyppi_serve_cache_evictions_total`:            float64(st.Evictions),
		`hyppi_serve_cache_entries`:                    float64(st.CacheEntries),
		`hyppi_serve_draining`:                         0,
	}
	for name, want := range checks {
		got, ok := samples[name]
		if !ok {
			t.Errorf("missing sample %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if st.Hits+st.Misses != 3 || st.Misses == 0 {
		t.Errorf("hits=%d misses=%d over 3 queries", st.Hits, st.Misses)
	}
	if up, ok := samples["hyppi_serve_uptime_seconds"]; !ok || up < 0 {
		t.Errorf("uptime gauge missing or negative: %v", up)
	}
}

// TestMetricsHistogram: the duration histogram's buckets are cumulative
// and monotone, end at +Inf, and _count equals the query total.
func TestMetricsHistogram(t *testing.T) {
	e := newTestEngine(t)
	const n = 4
	for i := 0; i < n; i++ {
		resp := e.Do(context.Background(), Request{ID: fmt.Sprint(i),
			Topology: "mesh", Width: 4, Height: 4,
			Pattern: "uniform", Load: 0.05, Want: WantLatency})
		if !resp.OK {
			t.Fatalf("query %d failed: %+v", i, resp.Error)
		}
	}
	// A synthetic slow query lands in the +Inf overflow bucket.
	e.observeLatency(10 * time.Second)

	var buf strings.Builder
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, buf.String())

	const h = "hyppi_serve_query_duration_seconds"
	type bucket struct {
		le  float64
		val float64
	}
	var buckets []bucket
	re := regexp.MustCompile(`^` + h + `_bucket\{le="([^"]+)"\}$`)
	for k, v := range samples {
		if m := re.FindStringSubmatch(k); m != nil {
			le := float64(0)
			if m[1] == "+Inf" {
				le = float64(1 << 62)
			} else {
				var err error
				le, err = strconv.ParseFloat(m[1], 64)
				if err != nil {
					t.Fatalf("bad le %q", m[1])
				}
			}
			buckets = append(buckets, bucket{le, v})
		}
	}
	if len(buckets) < 2 {
		t.Fatalf("only %d buckets", len(buckets))
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].val < buckets[i-1].val {
			t.Fatalf("bucket %v < preceding bucket %v", buckets[i], buckets[i-1])
		}
	}
	inf := buckets[len(buckets)-1]
	if inf.le != float64(1<<62) {
		t.Fatal("last bucket is not +Inf")
	}
	count := samples[h+"_count"]
	if inf.val != count {
		t.Errorf("+Inf bucket %v != _count %v", inf.val, count)
	}
	if count != n+1 {
		t.Errorf("_count %v, want %d", count, n+1)
	}
	// The 10 s synthetic sample overflows every finite bucket.
	if finite := buckets[len(buckets)-2]; finite.val != n {
		t.Errorf("largest finite bucket %v, want %d (overflow must not clamp)", finite.val, n)
	}
	if sum := samples[h+"_sum"]; sum < 10 {
		t.Errorf("_sum %v should include the 10 s sample", sum)
	}
}

// TestStatsUptimeAndQueueDepth: the /stats satellites — uptime advances,
// queue depth reflects pending work.
func TestStatsUptimeAndQueueDepth(t *testing.T) {
	e := newTestEngine(t)
	st := e.Stats()
	if st.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", st.UptimeSeconds)
	}
	if st.QueueDepth != 0 {
		t.Errorf("idle queue depth %d", st.QueueDepth)
	}
	time.Sleep(10 * time.Millisecond)
	if st2 := e.Stats(); st2.UptimeSeconds <= st.UptimeSeconds {
		t.Errorf("uptime did not advance: %v then %v", st.UptimeSeconds, st2.UptimeSeconds)
	}
}
