# Development targets for the HyPPI NoC reproduction.
#
#   make ci            — the full gate, fast checks first: vet, benchmark-module build,
#                        short, race-short, full tests
#   make perfbench-build — vet and build the perfbench/ benchmark module (a
#                        separate Go module root ./... does not reach)
#   make test          — full (non-short) test suite
#   make short         — fast feedback loop (seconds, scaled-down workloads)
#   make race          — race-enabled short suite (the concurrency gate)
#   make fmt-check     — fail if any file is not gofmt-clean (CI's formatting gate)
#   make bench         — regenerate every paper table/figure as benchmarks
#   make bench-baseline — rewrite BENCH_baseline.txt from a -benchtime=1x run
#   make bench-compare — run the benchmarks once and diff them against
#                        BENCH_baseline.txt; allocs/op regressions fail,
#                        timings are informational (1x runs are noisy)
#   make scale-smoke   — the 64×64 scale gate: wall-clock and heap budgets
#                        on a 4096-node pattern sweep (see TestScaleSmoke)
#   make golden        — rewrite internal/core/testdata/golden.json from HEAD
#   make golden-serve  — rewrite the internal/serve golden protocol files from HEAD
#   make golden-cli    — rewrite the CLI golden outputs (cmd/*/testdata) from HEAD
#   make examples-smoke — build and run every examples/ binary (output discarded)
#   make serve-smoke   — hyppi-serve selftest: sustained q/s + cache hit-rate gate
#   make fault-smoke   — the reliability gate: fault-layer invariants plus
#                        the FaultSweep suite (zero-fault differential,
#                        worker-count determinism, variant BER coupling)
#   make taskgraph-smoke — the closed-loop workload gate: allreduce and MoE
#                        operator graphs on the 8×8 hybrid under a wall
#                        budget (see TestTaskGraphSmoke)
#   make telemetry-smoke — the observability gate: a traced 16×16 sweep
#                        whose Chrome trace export must parse and whose
#                        probe series must match the window math
#                        (see TestTelemetrySmoke)

GO ?= go

# Where bench-compare writes the current run before diffing it against the
# pinned baseline.
BENCH_OUT ?= /tmp/hyppi-bench-current.txt

.PHONY: ci vet perfbench-build test short race fmt-check bench bench-baseline bench-compare scale-smoke golden golden-serve golden-cli examples-smoke serve-smoke fault-smoke taskgraph-smoke telemetry-smoke

# Ordered so the cheapest gates fail first: vet (seconds), the benchmark
# module build (seconds), short (seconds), race-short (tens of seconds),
# then the full suite.
ci: vet perfbench-build short race test

vet:
	$(GO) vet ./...

# perfbench/ is its own module (replace repro => ../), so root builds skip
# it: a renamed or removed core name would otherwise only surface when the
# benchmark pipeline runs. -o /dev/null keeps the main package's binary out
# of the module directory.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem .

# The pinned baseline is a -benchtime=1x run: timings from a single
# iteration are noise, but allocs/op is deterministic at 1x, which is what
# bench-compare and the CI bench-smoke job gate on. Refresh after a
# deliberate perf change with: make bench-baseline
bench-baseline:
	$(GO) test -bench=. -benchtime=1x -benchmem . > BENCH_baseline.txt
	@cat BENCH_baseline.txt

# One-iteration benchmark run diffed against the pinned baseline
# (benchstat-style, self-contained — see cmd/hyppi-benchcmp). allocs/op
# regressions beyond 1% fail (worker pools add a few allocs of scheduling
# jitter; a real regression is orders of magnitude larger); timings are
# informational. The JSON comparison lands in BENCH_scale.json for
# dashboards and CI artifacts.
bench-compare:
	$(GO) test -bench=. -benchtime=1x -benchmem . > $(BENCH_OUT) || { cat $(BENCH_OUT); exit 1; }
	@cat $(BENCH_OUT)
	$(GO) run ./cmd/hyppi-benchcmp -fail-allocs 1 -json BENCH_scale.json BENCH_baseline.txt $(BENCH_OUT)

# The 64×64 scale gate: a 4096-node uniform+tornado sweep must finish
# within TestScaleSmoke's wall-clock budget and O(n) heap ceiling, locking
# in algorithmic routing, streamed traffic and the cycle-skipping kernel.
scale-smoke:
	$(GO) test ./internal/core -run TestScaleSmoke -timeout 600s -v

golden:
	$(GO) test ./internal/core -run TestGolden -update

golden-serve:
	$(GO) test ./internal/serve -run TestGolden -update

# The CLI goldens pin every front end's output byte for byte, driven
# in-process through each command's run(args, …).
CLI_GOLDEN_PKGS = ./cmd/hyppi-sim ./cmd/hyppi-explore ./cmd/hyppi-all ./cmd/hyppi-trace ./cmd/hyppi-benchcmp ./cmd/hyppi-serve

golden-cli:
	$(GO) test $(CLI_GOLDEN_PKGS) -run TestGolden -update

# Every example is a standalone demo of one experiment family; running
# each to completion (output discarded, failures loud) keeps them from
# bit-rotting as the library underneath them moves.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run "./$$d" > /dev/null; \
	done

# The serving gate: replay the built-in mixed workload through an
# in-process engine and fail under 50 q/s sustained or 50% cache hits
# (the 1-CPU CI container clears both with an order of magnitude to spare).
serve-smoke:
	$(GO) run ./cmd/hyppi-serve -selftest -queries 120 -clients 8 -min-qps 50 -min-hit 0.5

# The reliability gate: the fault layer's structural invariants
# (schedules, reroute, thermal) and the core.FaultSweep suite — shape,
# the zero-fault bit-identity differential, serial-vs-parallel
# determinism on the fault axis, and the device-variant BER coupling.
fault-smoke:
	$(GO) test ./internal/fault -timeout 300s -v
	$(GO) test ./internal/core -run TestFaultSweep -timeout 600s -v

# The closed-loop workload gate: the ring/tree-allreduce and MoE
# all-to-all operator graphs replayed with dependency-gated injection on
# the paper's 8×8 electronic+HyPPI hybrid — makespans must respect their
# contention-free critical-path bounds inside a CI-container wall budget.
taskgraph-smoke:
	$(GO) test ./internal/core -run TestTaskGraphSmoke -timeout 300s -v

# The observability gate: a traced 16×16 telemetry sweep — the Chrome
# trace-event export must parse as JSON with one Perfetto process per
# cell, and the probe series must obey the window math exactly
# (Cycles/W + 1 closed windows, no evictions at the smoke horizon).
telemetry-smoke:
	$(GO) test ./internal/telemetry -timeout 300s -v
	$(GO) test ./internal/core -run TestTelemetry -timeout 300s -v
