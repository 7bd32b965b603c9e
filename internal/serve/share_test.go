package serve

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// twinQuery is a 4×4 mesh with express channels at hops 2 under uniform
// traffic at load 0.1, for one express technology and want.
func twinQuery(express, want string) Request {
	return Request{Width: 4, Height: 4, Express: express, Hops: 2, Pattern: "uniform", Load: 0.1, Want: want}
}

// alone answers a query on a fresh engine that is asked nothing else.
func alone(t *testing.T, req Request) []byte {
	t.Helper()
	return newTestEngine(t).Do(context.Background(), req).Encode()
}

// TestTwinsShareOneSimulation: latency, CLEAR and energy queries for
// HyPPI and for photonic express at one hop length time alike, so six
// evaluations make one simulation, and every answer is the one a fresh
// engine gives that query alone. Electronic express, whose links take one
// clock, simulates on its own.
func TestTwinsShareOneSimulation(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	for _, express := range []string{"HyPPI", "Photonic"} {
		for _, want := range []string{WantLatency, WantCLEAR, WantEnergy} {
			req := twinQuery(express, want)
			got := e.Do(ctx, req)
			if !got.OK {
				t.Fatalf("%s %s failed: %+v", express, want, got.Error)
			}
			if solo := alone(t, req); !bytes.Equal(got.Encode(), solo) {
				t.Errorf("%s %s priced from a shared run:\n got %s\nwant %s", express, want, got.Encode(), solo)
			}
		}
	}
	if st := e.Stats(); st.Evaluations != 6 || st.Simulations != 1 {
		t.Errorf("want 6 evaluations and 1 simulation, got %+v", st)
	}

	req := twinQuery("Electronic", WantEnergy)
	if got, solo := e.Do(ctx, req).Encode(), alone(t, req); !bytes.Equal(got, solo) {
		t.Errorf("electronic express:\n got %s\nwant %s", got, solo)
	}
	if st := e.Stats(); st.Evaluations != 7 || st.Simulations != 2 {
		t.Errorf("electronic express joined the optical run: %+v", st)
	}
}

// TestTwinWaitsWithoutEvaluator: on a two-evaluator engine whose first
// simulation is held, its photonic twin joins the run in flight and
// waits for it without holding the other evaluator, which answers an
// unrelated query meanwhile. The twin is priced when the run lands.
func TestTwinWaitsWithoutEvaluator(t *testing.T) {
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

	var first Response
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); first = e.Do(ctx, twinQuery("HyPPI", WantLatency)) }()
	<-entered // the HyPPI run is held mid-simulation

	twin := make(chan Response, 1)
	go func() { twin <- e.Do(ctx, twinQuery("Photonic", WantEnergy)) }()
	waitStats(t, e, func(s Stats) bool { return s.Evaluations == 2 }, "the twin taken by the free evaluator")

	other := make(chan Response, 1)
	go func() { other <- e.Do(ctx, Request{Width: 4, Height: 4, Pattern: "tornado", Load: 0.05}) }()
	select {
	case r := <-other:
		if !r.OK {
			t.Errorf("unrelated query failed: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Error("unrelated query waited behind the twin's run")
	}
	select {
	case r := <-twin:
		t.Errorf("twin answered before its run landed: %+v", r)
		twin <- r
	default:
	}

	close(release)
	wg.Wait()
	got := <-twin
	if !first.OK || !got.OK {
		t.Fatalf("held run's queries failed: %+v, %+v", first, got)
	}
	if solo := alone(t, twinQuery("Photonic", WantEnergy)); !bytes.Equal(got.Encode(), solo) {
		t.Errorf("twin priced from the landed run:\n got %s\nwant %s", got.Encode(), solo)
	}
	if st := e.Stats(); st.Simulations != 2 || st.Evaluations != 3 {
		t.Errorf("want 3 evaluations and 2 simulations, got %+v", st)
	}
}

// TestRunDroppedWithItsLastAnswer: a run lives as long as a cached answer
// names it. With two cache slots, two unrelated queries evict both
// answers priced from the twins' run; the run leaves the index, and
// asking a twin again simulates again.
func TestRunDroppedWithItsLastAnswer(t *testing.T) {
	e := newTestEngine(t, func(c *Config) { c.CacheEntries = 2; c.Workers = 1 })
	ctx := context.Background()
	ask := func(req Request) {
		t.Helper()
		if r := e.Do(ctx, req); !r.OK {
			t.Fatalf("%+v failed: %+v", req, r.Error)
		}
	}
	indexed := func() int {
		e.mu.Lock()
		defer e.mu.Unlock()
		n := 0
		for _, runs := range e.runs {
			n += len(runs)
		}
		return n
	}

	ask(twinQuery("HyPPI", WantLatency))
	ask(twinQuery("Photonic", WantLatency))
	if st := e.Stats(); st.Simulations != 1 {
		t.Fatalf("twins did not share a run: %+v", st)
	}
	ask(Request{Width: 4, Height: 4, Pattern: "uniform", Load: 0.05})
	if n := indexed(); n != 2 {
		t.Errorf("after one twin's eviction the index holds %d runs, want 2", n)
	}
	ask(Request{Width: 4, Height: 4, Pattern: "uniform", Load: 0.15})
	if n := indexed(); n != 2 {
		t.Errorf("after both twins' eviction the index holds %d runs, want 2", n)
	}
	ask(twinQuery("HyPPI", WantLatency))
	if st := e.Stats(); st.Simulations != 4 || st.Evictions != 3 {
		t.Errorf("want the evicted twin simulated again (4 simulations, 3 evictions), got %+v", st)
	}
}
