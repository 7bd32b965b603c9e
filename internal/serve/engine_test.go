package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serveRequests is a mixed workload: distinct queries across kinds,
// patterns, loads, wants and a kernel trace, plus duplicates of several —
// the shape the cache, single-flight dedup and evaluator pool all see at
// once.
func serveRequests() []Request {
	distinct := []Request{
		{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05},
		{Width: 4, Height: 4, Pattern: "uniform", Load: 0.1},
		{Width: 4, Height: 4, Pattern: "tornado", Load: 0.05},
		{Width: 4, Height: 4, Pattern: "neighbor", Load: 0.1},
		{Topology: "torus", Width: 4, Height: 4, Pattern: "uniform", Load: 0.05},
		{Topology: "fbfly", Width: 4, Height: 4, Pattern: "transpose", Load: 0.05},
		{Width: 4, Height: 4, Express: "HyPPI", Hops: 2, Pattern: "tornado", Load: 0.1},
		{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05, Want: WantCLEAR},
		{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05, Want: WantEnergy},
		{Width: 4, Height: 4, Kernel: "LU"},
	}
	reqs := make([]Request, 0, 3*len(distinct))
	for round := 0; round < 3; round++ {
		for i, r := range distinct {
			r.ID = fmt.Sprintf("r%d-q%d", round, i)
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// TestConcurrentMatchesSerial is the serving determinism contract at the
// wire level: N goroutines racing the same workload through a fresh
// engine produce responses byte-identical to a fresh engine answering the
// same requests one at a time — whatever dedup or scheduling happened in
// between.
func TestConcurrentMatchesSerial(t *testing.T) {
	reqs := serveRequests()
	ctx := context.Background()

	serial := newTestEngine(t, func(c *Config) { c.Workers = 1 })
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		want[i] = serial.Do(ctx, r).Encode()
	}

	conc := newTestEngine(t, func(c *Config) { c.Workers = 4 })
	got := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r Request) {
			defer wg.Done()
			got[i] = conc.Do(ctx, r).Encode()
		}(i, r)
	}
	wg.Wait()

	for i := range reqs {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("request %d diverged under concurrency:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	st := conc.Stats()
	if st.Evaluations != 10 {
		t.Errorf("want 10 evaluations for 10 distinct queries, got %d (stats %+v)", st.Evaluations, st)
	}
	// The latency, CLEAR and energy queries of uniform at 0.05 share a run.
	if st.Simulations != 8 {
		t.Errorf("want 8 simulations for 10 distinct queries, got %d (stats %+v)", st.Simulations, st)
	}
	if st.Hits != uint64(len(reqs))-10 {
		t.Errorf("want %d hits, got %d", len(reqs)-10, st.Hits)
	}
}

// gateEngine installs a simulation gate on a one-evaluator engine: every
// simulation announces itself on entered and blocks until a value arrives
// on release, so at most one simulation is ever busy.
func gateEngine(t *testing.T, mutate ...func(*Config)) (*Engine, chan struct{}, chan struct{}) {
	t.Helper()
	oneEvaluator := func(c *Config) { c.Workers = 1 }
	e := newTestEngine(t, append(mutate, oneEvaluator)...)
	entered := make(chan struct{})
	release := make(chan struct{})
	e.simHook = func() {
		entered <- struct{}{}
		<-release
	}
	return e, entered, release
}

// waitStats polls until cond holds or the deadline passes.
func waitStats(t *testing.T, e *Engine, cond func(Stats) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(e.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (stats %+v)", what, e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightDedup pins the dedup guarantee with an evaluation-count
// hook: K identical queries arriving while the first is still evaluating
// join it — one evaluation, K identical answers.
func TestSingleFlightDedup(t *testing.T) {
	const k = 8
	e, entered, release := gateEngine(t)
	req := Request{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05}
	ctx := context.Background()

	responses := make([][]byte, k)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); responses[0] = e.Do(ctx, req).Encode() }()
	<-entered // first query is now mid-evaluation

	for i := 1; i < k; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); responses[i] = e.Do(ctx, req).Encode() }(i)
	}
	// The duplicates must register as joins on the in-flight entry while
	// evaluation is still gated — that is the single-flight property.
	waitStats(t, e, func(s Stats) bool { return s.Hits == k-1 }, "k-1 in-flight joins")
	release <- struct{}{}
	wg.Wait()

	for i := 1; i < k; i++ {
		if !bytes.Equal(responses[i], responses[0]) {
			t.Errorf("response %d diverged: %s vs %s", i, responses[i], responses[0])
		}
	}
	st := e.Stats()
	if st.Evaluations != 1 || st.Misses != 1 || st.Batches != 1 {
		t.Errorf("want exactly one evaluation for %d identical queries, got %+v", k, st)
	}
}

// TestBackpressureQueueFull: with a depth-1 queue and the one evaluator
// gated, a third distinct query is rejected with queue_full instead of
// blocking or growing state; the queued queries still answer.
func TestBackpressureQueueFull(t *testing.T) {
	e, entered, release := gateEngine(t, func(c *Config) { c.QueueDepth = 1 })
	ctx := context.Background()
	q := func(load float64) Request {
		return Request{Width: 4, Height: 4, Pattern: "uniform", Load: load}
	}

	var wg sync.WaitGroup
	results := make([]Response, 2)
	wg.Add(1)
	go func() { defer wg.Done(); results[0] = e.Do(ctx, q(0.05)) }()
	<-entered // the evaluator is busy with query 1; the queue is empty again

	wg.Add(1)
	go func() { defer wg.Done(); results[1] = e.Do(ctx, q(0.1)) }()
	waitStats(t, e, func(s Stats) bool { return s.Misses == 2 }, "query 2 enqueued")

	rejected := e.Do(ctx, q(0.2))
	if rejected.OK || rejected.Error == nil || rejected.Error.Code != CodeQueueFull {
		t.Fatalf("want queue_full rejection, got %+v", rejected)
	}

	release <- struct{}{}
	<-entered // query 2, taken from the queue
	release <- struct{}{}
	wg.Wait()
	for i, r := range results {
		if !r.OK {
			t.Errorf("queued query %d failed: %+v", i, r)
		}
	}
	if st := e.Stats(); st.Rejected != 1 {
		t.Errorf("want 1 rejection, got %+v", st)
	}
}

// TestCanceledWaitStaysCached: a caller abandoning its wait gets a
// canceled error, but the evaluation completes and serves later callers
// from the cache.
func TestCanceledWaitStaysCached(t *testing.T) {
	e, entered, release := gateEngine(t)
	req := Request{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05}

	ctx, cancel := context.WithCancel(context.Background())
	var abandoned Response
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); abandoned = e.Do(ctx, req) }()
	<-entered
	cancel()
	wg.Wait()
	if abandoned.OK || abandoned.Error.Code != CodeCanceled {
		t.Fatalf("want canceled, got %+v", abandoned)
	}

	release <- struct{}{}
	later := e.Do(context.Background(), req)
	if !later.OK {
		t.Fatalf("cached result unavailable after canceled wait: %+v", later)
	}
	if st := e.Stats(); st.Evaluations != 1 || st.Hits != 1 {
		t.Errorf("want the canceled query's evaluation reused, got %+v", st)
	}
}

// TestCloseRejectsNewQueries: Close drains, then new queries fail fast.
func TestCloseRejectsNewQueries(t *testing.T) {
	e := NewEngine(Config{Sweep: testSweep(), Workers: 1})
	req := Request{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05}
	if r := e.Do(context.Background(), req); !r.OK {
		t.Fatalf("pre-close query failed: %+v", r)
	}
	e.Close()
	e.Close() // idempotent
	r := e.Do(context.Background(), Request{Width: 4, Height: 4, Pattern: "uniform", Load: 0.1})
	if r.OK || r.Error.Code != CodeQueueFull {
		t.Fatalf("want shutdown rejection, got %+v", r)
	}
	// Cached answers would also be fine post-close; what must not happen
	// is a hang or a send on the closed queue (the race build checks it).
}

// TestNoHeadOfLine: with two evaluators, a slow simulation does not hold
// up a distinct query behind it — the second query is answered while the
// first is still held.
func TestNoHeadOfLine(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.Workers = 2 })
	entered := make(chan struct{})
	release := make(chan struct{})
	var held atomic.Bool
	e.simHook = func() {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	ctx := context.Background()
	q := func(load float64) Request {
		return Request{Width: 4, Height: 4, Pattern: "uniform", Load: load}
	}

	var first Response
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); first = e.Do(ctx, q(0.05)) }()
	<-entered // the first query is held mid-evaluation

	second := make(chan Response, 1)
	go func() { second <- e.Do(ctx, q(0.1)) }()
	select {
	case r := <-second:
		if !r.OK {
			t.Errorf("second query failed: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Error("second query waited behind the held evaluation")
	}
	close(release)
	wg.Wait()
	if !first.OK {
		t.Errorf("held query failed: %+v", first)
	}
}

// TestCacheEvictionLRU pins the cache bound: at CacheEntries the
// least-recently-used completed entry is evicted (recency set by hits,
// not just inserts), the survivor still answers from cache, and the
// evicted query re-evaluates on return.
func TestCacheEvictionLRU(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.CacheEntries = 2; c.Workers = 1 })
	ctx := context.Background()
	q := func(load float64) Request {
		return Request{Width: 4, Height: 4, Pattern: "uniform", Load: load}
	}

	for _, load := range []float64{0.05, 0.1} { // fill the cache: [B, A]
		if r := e.Do(ctx, q(load)); !r.OK {
			t.Fatalf("query %v failed: %+v", load, r)
		}
	}
	if r := e.Do(ctx, q(0.05)); !r.OK { // touch A: recency now [A, B]
		t.Fatalf("touch failed: %+v", r)
	}
	if r := e.Do(ctx, q(0.15)); !r.OK { // C evicts B, the LRU — not A
		t.Fatalf("evicting query failed: %+v", r)
	}
	st := e.Stats()
	if st.Evictions != 1 || st.CacheEntries != 2 {
		t.Fatalf("want 1 eviction at the 2-entry cap, got %+v", st)
	}

	if r := e.Do(ctx, q(0.05)); !r.OK { // A survived: a hit, no new eval
		t.Fatalf("surviving entry failed: %+v", r)
	}
	if r := e.Do(ctx, q(0.1)); !r.OK { // B was evicted: a fresh miss
		t.Fatalf("evicted entry failed on return: %+v", r)
	}
	st = e.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Evaluations != 4 {
		t.Errorf("want hits=2 misses=4 evals=4 across the eviction, got %+v", st)
	}
	if st.Evictions != 2 || st.CacheEntries != 2 {
		t.Errorf("cache not bounded after re-admission: %+v", st)
	}
}

// TestEvictionPinsInFlight: at the cap with every entry still
// evaluating, a new distinct query is rejected (queue_full) rather than
// dropping an entry waiters depend on — while duplicates of the
// in-flight query still join it (single-flight survives the bound).
func TestEvictionPinsInFlight(t *testing.T) {
	e, entered, release := gateEngine(t, func(c *Config) { c.CacheEntries = 1 })
	ctx := context.Background()
	q := func(load float64) Request {
		return Request{Width: 4, Height: 4, Pattern: "uniform", Load: load}
	}

	var first Response
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); first = e.Do(ctx, q(0.05)) }()
	<-entered // the lone cache slot is now a pinned in-flight entry

	rejected := e.Do(ctx, q(0.1))
	if rejected.OK || rejected.Error.Code != CodeQueueFull {
		t.Fatalf("want queue_full with the cache pinned, got %+v", rejected)
	}

	var joined Response
	wg.Add(1)
	go func() { defer wg.Done(); joined = e.Do(ctx, q(0.05)) }()
	waitStats(t, e, func(s Stats) bool { return s.Hits == 1 }, "duplicate joining the pinned entry")

	release <- struct{}{}
	wg.Wait()
	if !first.OK || !joined.OK || !bytes.Equal(first.Encode(), joined.Encode()) {
		t.Fatalf("single-flight answers diverged under the cache bound: %+v vs %+v", first, joined)
	}

	// With the entry completed the slot is evictable: the rejected query
	// now displaces it.
	var later Response
	wg.Add(1)
	go func() { defer wg.Done(); later = e.Do(ctx, q(0.1)) }()
	<-entered
	release <- struct{}{}
	wg.Wait()
	if !later.OK {
		t.Fatalf("query after completion failed: %+v", later)
	}
	if st := e.Stats(); st.Evictions != 1 || st.CacheEntries != 1 || st.Rejected != 1 {
		t.Errorf("want 1 eviction, 1 rejection, bounded cache; got %+v", st)
	}
}

// TestServeLinesOrderAndRecovery: responses come back in input order,
// blank lines are skipped, malformed lines answer structured errors
// without killing the session.
func TestServeLinesOrderAndRecovery(t *testing.T) {
	e := newTestEngine(t)
	input := strings.Join([]string{
		`{"id":"a","width":4,"height":4,"pattern":"uniform","load":0.05}`,
		``,
		`not json at all`,
		`{"id":"b","width":4,"height":4,"pattern":"uniform","load":0.05}`,
		`{"id":"c","pattern":"zipf","load":0.1}`,
		`{"id":"d","width":4,"height":4,"pattern":"tornado","load":0.05}`,
	}, "\n") + "\n"

	var out bytes.Buffer
	if err := e.ServeLines(context.Background(), strings.NewReader(input), &out, 4); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 response lines, got %d:\n%s", len(lines), out.String())
	}
	wantMarks := []string{`"id":"a","ok":true`, `"ok":false`, `"id":"b","ok":true`, `"id":"c","ok":false`, `"id":"d","ok":true`}
	for i, mark := range wantMarks {
		if !strings.Contains(lines[i], mark) {
			t.Errorf("line %d out of order or wrong: want %s in %s", i, mark, lines[i])
		}
	}
	// a and b are the same canonical query: dedup or cache must have fired.
	if st := e.Stats(); st.Hits == 0 {
		t.Errorf("identical stdio queries did not share an evaluation: %+v", st)
	}
}

// TestHTTPHandler covers the HTTP transport: status mapping, stats and
// health endpoints, and that the body is the same canonical line stdio
// writes.
func TestHTTPHandler(t *testing.T) {
	e := newTestEngine(t)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, strings.TrimSpace(buf.String())
	}

	status, body := post(`{"id":"h1","width":4,"height":4,"pattern":"uniform","load":0.05}`)
	if status != 200 || !strings.Contains(body, `"ok":true`) {
		t.Errorf("valid query: got %d %s", status, body)
	}
	wire := e.Do(context.Background(), Request{ID: "h1", Width: 4, Height: 4, Pattern: "uniform", Load: 0.05}).Encode()
	if body != string(wire) {
		t.Errorf("HTTP body differs from canonical line:\n http %s\n line %s", body, wire)
	}

	status, body = post(`{"pattern":"zipf","load":0.1}`)
	if status != 400 || !strings.Contains(body, CodeUnknownPattern) {
		t.Errorf("unknown pattern: got %d %s", status, body)
	}
	status, body = post(`{"topology":"torus","hops":3,"pattern":"uniform","load":0.1}`)
	if status != 422 || !strings.Contains(body, CodeEvalFailed) {
		t.Errorf("eval failure: got %d %s", status, body)
	}

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(buf.String(), `"Hits"`) {
		t.Errorf("stats: got %d %s", resp.StatusCode, buf.String())
	}

	resp, err = srv.Client().Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /query: want 405, got %d", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz: want 200, got %d", resp.StatusCode)
	}
}

// TestHTTPDraining covers the graceful-shutdown window: once the engine
// drains, new queries answer 503 draining (with Retry-After) and /healthz
// stops reporting ok, while already-cached answers stay reachable after
// the drain ends only through fresh connections — the handler refuses at
// the door, not mid-flight.
func TestHTTPDraining(t *testing.T) {
	e := newTestEngine(t)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	query := `{"id":"d1","width":4,"height":4,"pattern":"uniform","load":0.05}`
	resp, err := srv.Client().Post(srv.URL+"/query", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pre-drain query: want 200, got %d", resp.StatusCode)
	}

	if e.Draining() {
		t.Fatal("engine draining before StartDraining")
	}
	e.StartDraining()
	if !e.Draining() {
		t.Fatal("StartDraining did not latch")
	}

	resp, err = srv.Client().Post(srv.URL+"/query", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 || !strings.Contains(buf.String(), CodeDraining) {
		t.Errorf("draining query: want 503 %s, got %d %s", CodeDraining, resp.StatusCode, buf.String())
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining response misses Retry-After")
	}

	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("draining healthz: want 503, got %d", resp.StatusCode)
	}
}

// TestHTTPBodyLimit pins the request-size bound: a body over the stdio
// line limit is refused explicitly instead of being truncated into a
// different (possibly valid) query.
func TestHTTPBodyLimit(t *testing.T) {
	e := newTestEngine(t)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	huge := `{"id":"` + strings.Repeat("x", maxLineBytes) + `"}`
	resp, err := srv.Client().Post(srv.URL+"/query", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || !strings.Contains(buf.String(), CodeBadRequest) {
		t.Errorf("oversized body: want 400 %s, got %d %s", CodeBadRequest, resp.StatusCode, buf.String())
	}
}

// TestQueueFullMapsTo429 pins the backpressure status without needing to
// race real HTTP requests: the writer maps the code, the engine produces
// it (TestBackpressureQueueFull).
func TestQueueFullMapsTo429(t *testing.T) {
	cases := []struct {
		code string
		want int
	}{
		{CodeQueueFull, 429},
		{CodeEvalFailed, 422},
		{CodeCanceled, 503},
		{CodeDraining, 503},
		{CodeBadLoad, 400},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeResponse(rec, errResponse("x", errf(c.code, "", "synthetic")))
		if rec.Code != c.want {
			t.Errorf("%s: want %d, got %d", c.code, c.want, rec.Code)
		}
		if (c.code == CodeQueueFull || c.code == CodeDraining) && rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s response misses Retry-After", c.code)
		}
	}
}
