// Package serve turns the simulator into a long-lived estimation
// service: clients submit (topology kind, design point, pattern | trace,
// load, want) queries and get back deterministic latency / CLEAR /
// energy estimates — the server half of the uPIMulator × BookSim2
// cosimulation interface, where a host engine drives a NoC timing model
// over a JSON-lines protocol and folds the returned figures into its own
// critical path.
//
// # Engine
//
// Engine layers the serving concerns over the repository's evaluation
// core, core.Eval's timing step (core.Resolve, Timing.Simulate) and
// pricing step (Timing.Price):
//
//   - a keyed result cache: queries are canonicalized (registry-cased
//     names, defaults folded) and identical queries share one result,
//   - single-flight dedup: identical in-flight queries join the same
//     evaluation instead of re-running it,
//   - one simulation per timing model: queries of one workload (the
//     canonical query without want, base and express) whose fabrics time
//     alike (core.Timing.Alike: the same wiring, next hops and link
//     latencies, as HyPPI and photonic express at one hop length) share
//     one kernel run and are priced apart, each on its own fabric and
//     energy model; a query joining a run in flight waits without holding
//     an evaluator, and a run is dropped with the last cached answer
//     priced from it. Stats.Simulations counts kernel runs beside
//     Stats.Evaluations (one per distinct canonical query),
//   - an evaluator pool: Config.Workers goroutines each take one queued
//     query and answer it as soon as its own cell is evaluated, so a
//     cheap query never waits for a slow one; networks and tables are
//     shared through the Options' network cache,
//   - bounded backpressure: beyond QueueDepth pending evaluations the
//     engine answers queue_full (HTTP 429) instead of growing without
//     bound.
//
// Responses are deterministic: a result is a pure function of the
// canonical query, so concurrent clients receive bytes identical to
// serial evaluation whatever the interleaving (the CONCURRENCY contract
// in CHANGES.md, extended to the serving layer).
//
// # Wire protocol
//
// One JSON object per request. Over stdio (ServeLines) each line is a
// request and each output line the matching response, in request order;
// over HTTP (Handler) the same object is POSTed to /query. Requests:
//
//	{"id":"q1",                  // optional, echoed verbatim
//	 "topology":"mesh",          // registered kind (mesh, torus, cmesh, fbfly)
//	 "width":8, "height":8,      // router grid, default 8×8
//	 "base":"Electronic",        // mesh channel technology
//	 "express":"HyPPI",          // express channel technology
//	 "hops":3,                   // express hop length, 0 = none
//	 "pattern":"tornado",        // registered pattern …
//	 "kernel":"LU",              // … or NPB trace: FT CG MG LU EP IS (exactly one)
//	 "load":0.1,                 // flits/cycle in (0,1], pattern mode only
//	 "want":"latency"}           // latency (default) | clear | energy
//
// Responses are canonical single-line JSON (byte-stable; see
// report.JSONLine):
//
//	{"id":"q1","ok":true,"result":{"topology":"mesh","point":"…",
//	 "width":8,"height":8,"pattern":"tornado","load":0.1,"want":"latency",
//	 "avg_latency_clks":…,"p99_latency_clks":…,"cycles":…,"packets":…}}
//
// want:clear adds clear / r / avg_utilization; want:energy adds the
// measured fj_per_bit / dynamic_j / static_j / total_j / avg_power_w
// block as well. Runs that fail to drain within the cycle cap answer
// "saturated":true with no pricing.
//
// Rejections are structured and name the offending field:
//
//	{"ok":false,"error":{"code":"unknown_pattern","field":"pattern",
//	 "message":"traffic: unknown pattern \"zipf\" (known: uniform, …)"}}
//
// Error codes: bad_json, unknown_field, unknown_kind, unknown_pattern,
// unknown_kernel, unknown_tech, bad_load, bad_want, bad_geometry,
// bad_request, queue_full, eval_failed, canceled.
//
// The golden protocol suite under testdata/ pins request/response pairs
// for every kind×pattern combination and every error class; see
// cmd/hyppi-serve for the stdio/HTTP entry point and serve/loadtest for
// the sustained-throughput harness.
package serve
