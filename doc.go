// Package repro reproduces "HyPPI NoC: Bringing Hybrid Plasmonics to an
// Opto-Electronic Network-on-Chip" (Narayana, Sun, Mehrabian, Sorger,
// El-Ghazawi — ICPP 2017, arXiv:1703.04646) as a self-contained Go library.
//
// The root module only hosts the benchmark harness (bench_test.go), which
// regenerates every table and figure of the paper's evaluation; the
// implementation lives under internal/:
//
//	internal/tech      Table I device catalogue + technology enumeration
//	internal/link      bare link models and link-level CLEAR (Fig. 3)
//	internal/dsent     modified-DSENT component cost models (11 nm)
//	internal/topology  topology-kind registry: mesh/express (Fig. 2), torus, cmesh, fbfly
//	internal/routing   dimension-ordered express routing + BFS tables
//	internal/traffic   Soteriou statistical traffic + synthetic pattern registry
//	internal/analytic  Section III-B system CLEAR evaluation (Fig. 5)
//	internal/noc       cycle-accurate VC-router simulator (BookSim role)
//	internal/trace     trace format + paper-style packetization
//	internal/npb       synthetic NAS Parallel Benchmark traces
//	internal/optical   all-optical routers and Fig. 8 projections
//	internal/runner    bounded worker pool for parallel experiment batches
//	internal/core      experiment façade tying it all together
//
// Experiment batches (the Fig. 5 design space, load-latency sweeps,
// pattern saturation sweeps, NPB trace runs) execute on internal/runner's
// worker pool: results are collected in job order and every job is a pure
// function of its index, so sweeps are bit-identical to a serial run at
// any pool size. See the runner package documentation for the determinism
// contract.
//
// The simulator is an event-driven active-set kernel (per-cycle cost
// scales with live flits, not network size) with reusable state:
// noc.Sim.Reset and noc.SimPool recycle simulators across sweep points,
// and internal/core memoizes topologies, routing tables and traffic
// matrices process-wide. See the noc package documentation and the
// README's Performance section.
//
// Beyond the paper's workloads, internal/traffic carries a registry of
// named synthetic patterns (uniform, transpose, bitcomp, bitrev, shuffle,
// tornado, neighbor, hotspot); core.PatternSweep walks each pattern's
// load ladder (one open-loop sample per rate, internal/core/sweep.go) and
// measures its saturation throughput with the ladder's latency-knee rule
// (internal/core/energy.go). Beyond the paper's fabric, internal/topology
// carries a registry of named topology kinds (mesh, torus, cmesh, fbfly)
// sharing one Link/NodeID model; core.ExploreKinds and the kind axis of
// core.PatternSweep (and of EnergySweep and FaultSweep) sweep them,
// and a cross-topology conformance suite pins each kind's routing
// contract. See README.md for both registries' formulas and CLI usage.
package repro
