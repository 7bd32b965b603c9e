// Command hyppi-serve exposes the simulator as a long-lived estimation
// service: clients submit {topology, design point, pattern|kernel, load,
// want} queries as JSON lines and get back deterministic latency / CLEAR /
// energy estimates. The engine (internal/serve) answers from a keyed
// result cache with single-flight dedup of identical in-flight queries,
// evaluates distinct queries on a pool of -workers evaluators, one query
// each at a time, and rejects with queue_full (HTTP 429) beyond its queue
// depth.
//
// Usage:
//
//	echo '{"pattern":"uniform","load":0.05}' | hyppi-serve
//	hyppi-serve -http :8080 &
//	curl -d '{"pattern":"tornado","load":0.1,"want":"clear"}' localhost:8080/query
//	curl localhost:8080/stats
//	curl localhost:8080/metrics
//	hyppi-serve -http :8080 -debug-addr localhost:6060 &
//	hyppi-serve -selftest -queries 120 -clients 8 -min-qps 50 -min-hit 0.5
//
// Without -http, hyppi-serve speaks the JSON-lines protocol on
// stdin/stdout (the BookSim2-style cosimulation interface): one request
// per line, one response line per request, in request order. With -http
// it serves POST /query, GET /stats (counters as JSON, including uptime
// and queue depth), GET /metrics (the same census in Prometheus text
// format 0.0.4, plus a service-latency histogram) and GET /healthz, with
// read/write timeouts and a 1 MiB request-body bound. -debug-addr starts
// an extra net/http/pprof listener on a separate (ideally loopback)
// address for live profiling.
//
// SIGINT or SIGTERM drains gracefully: new queries are refused with 503
// draining (and /healthz stops reporting ok, so load balancers shed
// traffic) while queries already accepted run to completion, bounded by
// -drain-timeout. A second signal aborts immediately.
//
// -selftest replays the built-in mixed workload through an in-process
// engine and reports sustained queries/sec and cache hit rate, failing
// when either lands under its -min bound — the serve-smoke CI gate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/loadtest"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Flag usage strings are package level so the usage test can assert every
// registered pattern and kind name is discoverable from -h.
var (
	patternUsage = "queries name a synthetic pattern (" +
		strings.Join(traffic.Names(), ", ") + ") or an NPB kernel trace"
	topologyUsage = "queries pick a topology kind: " +
		strings.Join(topology.Names(), ", ") + " (default mesh)"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hyppi-serve:", err)
		os.Exit(1)
	}
}

// run parses args and serves: the selftest report, or stdio-mode
// responses, go to stdout; listener notices, drain progress, usage and
// flag errors go to stderr. Stdio mode reads its request lines from stdin.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hyppi-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	httpAddr := fs.String("http", "", "serve HTTP on this address instead of stdio (e.g. :8080)")
	debugAddr := fs.String("debug-addr", "",
		"also serve net/http/pprof on this address (e.g. localhost:6060); "+
			"keep it off public interfaces")
	workers := fs.Int("workers", 0, "evaluators answering distinct queries concurrently (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue", serve.DefaultQueueDepth, "pending-evaluation queue depth (backpressure bound)")
	maxNodes := fs.Int("max-nodes", serve.DefaultMaxNodes, "largest width*height a query may ask for")
	inFlight := fs.Int("in-flight", serve.DefaultMaxInFlight, "stdio mode: max request lines answered concurrently")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"graceful-shutdown bound: how long in-flight queries may finish after SIGINT/SIGTERM")
	selftest := fs.Bool("selftest", false, "replay the built-in workload and report q/s + hit rate")
	queries := fs.Int("queries", 120, "selftest: total queries")
	clients := fs.Int("clients", 8, "selftest: concurrent clients")
	targetQPS := fs.Float64("qps", 0, "selftest: offered rate (0 = as fast as possible)")
	minQPS := fs.Float64("min-qps", 0, "selftest: fail under this sustained rate")
	minHit := fs.Float64("min-hit", 0, "selftest: fail under this cache hit rate")
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"Usage: hyppi-serve [flags]\n\nJSON-lines simulation service; %s;\n%s.\n\n",
			patternUsage, topologyUsage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	cfg := serve.DefaultEngineConfig()
	cfg.Workers = *workers
	cfg.QueueDepth = *queueDepth
	cfg.MaxNodes = *maxNodes
	engine := serve.NewEngine(cfg)
	defer engine.Close()

	// The debug listener is opt-in and separate from the service address,
	// so profiling endpoints never ride on the public port. Its own mux
	// carries only the pprof handlers.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		fmt.Fprintf(stderr, "hyppi-serve: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go dsrv.Serve(dln)
		defer dsrv.Close()
	}

	// One signal starts the graceful drain; stop() restores default
	// delivery, so a second SIGINT/SIGTERM kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *selftest:
		rep, err := loadtest.Run(ctx, engine, loadtest.Config{
			Queries: *queries, Clients: *clients, TargetQPS: *targetQPS,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep)
		switch {
		case rep.Failed > 0:
			return fmt.Errorf("selftest: %d queries failed", rep.Failed)
		case *minQPS > 0 && rep.QPS < *minQPS:
			return fmt.Errorf("selftest: %.1f q/s under the %.1f q/s floor", rep.QPS, *minQPS)
		case *minHit > 0 && rep.HitRate < *minHit:
			return fmt.Errorf("selftest: hit rate %.2f under the %.2f floor", rep.HitRate, *minHit)
		}
		return nil

	case *httpAddr != "":
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		// Slow-client hardening: a body must arrive promptly, but the
		// write timeout also covers the evaluation itself, so it stays an
		// order of magnitude above the worst cold query the size cap
		// admits. Idle keep-alive connections are reaped independently.
		srv := &http.Server{
			Handler:           engine.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		fmt.Fprintf(stderr, "hyppi-serve: listening on http://%s (POST /query, GET /stats, GET /metrics, GET /healthz)\n",
			ln.Addr())
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
		// Drain: refuse new queries (503), let accepted ones finish,
		// bounded by -drain-timeout.
		engine.StartDraining()
		fmt.Fprintf(stderr, "hyppi-serve: signal received, draining (bound %v)\n", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintln(stderr, "hyppi-serve: drained")
		return nil

	default:
		err := engine.ServeLines(ctx, stdin, stdout, *inFlight)
		if errors.Is(err, context.Canceled) {
			// Signal-driven exit: responses already accepted were written
			// in order before ServeLines returned.
			fmt.Fprintln(stderr, "hyppi-serve: signal received, drained")
			return nil
		}
		return err
	}
}
