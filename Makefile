GO ?= go

# Tier-1+ gate: everything CI (and the next contributor) should run before
# merging, in order: `vet` + `build`, then `lint` (simlint determinism
# checks + gofmt — static, so it runs before the expensive dynamic gates),
# the full test suite under the race detector (the parallel sweep runner
# makes -race meaningful), a short fuzz smoke, a short benchmark smoke to
# catch accidental allocation regressions in the event core, the
# observability smoke, the benchmark regression gate against the
# committed BENCH_skyloft.json, the chaos and oversubscription gates, and a
# run of every example program.
.PHONY: check
check: vet build lint race fuzz-smoke bench-smoke obs-smoke bench-gate chaos oversub examples-smoke

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: build
build:
	$(GO) build ./...

# Determinism + ownership lint: cmd/simlint statically enforces the
# reproducibility invariants (no wall clock, no global rand, no unordered
# map iteration, no bare goroutines or multi-case selects, no raw
# nanosecond literals — DESIGN.md §9) and observer purity (observer
# packages attach-only, never mutating owned sim state — DESIGN.md §14).
# Also fails on files gofmt would rewrite, so the tree stays formatted.
.PHONY: lint
lint:
	$(GO) run ./cmd/simlint ./internal/... ./cmd/...
	@fmt=$$(gofmt -l .); \
	if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi

# Fast loop for analyzer development: the fixture harness and unit tests of
# the lint package only, skipping the whole-repo meta-test (that is what
# `make lint` / TestSimlintRepoClean cover). Every analyzer's positive and
# negative fixture cases run in a few seconds.
.PHONY: lint-fixtures
lint-fixtures:
	$(GO) test -skip 'TestSimlintRepoClean' ./internal/lint/

# Tier-1 as defined in ROADMAP.md.
.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# Fuzz smoke: a short run of each native fuzz target beyond its checked-in
# seed corpus (testdata/fuzz/, which plain `go test` already replays).
# FuzzClock drives the timer-wheel Clock and the reference HeapClock from
# the same input and fails on the first dispatch divergence. FuzzLSM drives
# the LSM store with Put/Get/Scan sequences on two store shapes and fails
# on the first answer that differs from a map plus sort.Strings, or on a
# Scan result that a later op changed. Each new fuzz target appends its
# own line.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzClock$$' -fuzztime 10s ./internal/simtime/
	$(GO) test -run '^$$' -fuzz '^FuzzLSM$$' -fuzztime 10s ./internal/apps/kvstore/

# A handful of iterations only — this is a smoke test that the benchmarks
# still compile and run, not a measurement; the wheel clock's two
# benchmarks (a bare Step loop, and the same load through 1 ms Run windows
# as the engines drive it) must show 0 allocs/op beside the HeapClock
# reference; BenchmarkLSMScan/run (a Fig. 8b SCAN inside the compacted
# run, which returns the run's own value column) must show 0 allocs/op, so
# a per-SCAN copy of a run is visible beside the memtable and straddle
# cases' one; the proc pair's -benchmem line (one Resume→Ask round trip,
# one pooled thread life) makes a per-switch allocation visible; the
# thread-per-request window (~100 NIC requests through core + worksteal +
# server, each a quick thread with no coroutine behind it) and the
# runqueue cycle must show 0 allocs/op, so a reintroduced per-request or
# per-enqueue allocation is visible here.
# Real numbers: see EXPERIMENTS.md ("Event-core performance"; the LSM's
# under Fig. 8b) and `go test -bench . -benchmem`.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkClock' -benchtime 100x -benchmem ./internal/simtime/
	$(GO) test -run '^$$' -bench 'BenchmarkFig7Sweep$$' -benchtime 1x -benchmem ./internal/bench/
	$(GO) test -run '^$$' -bench 'BenchmarkLSM' -benchtime 100x -benchmem ./internal/apps/kvstore/
	$(GO) test -run '^$$' -bench 'BenchmarkResumeAsk|BenchmarkPoolLife' -benchtime 100x -benchmem ./internal/proc/
	$(GO) test -run '^$$' -bench 'BenchmarkThreadPerRequest' -benchtime 100x -benchmem ./internal/apps/server/
	$(GO) test -run '^$$' -bench 'BenchmarkDeque' -benchtime 100x -benchmem ./internal/policy/

# End-to-end observability smoke (DESIGN.md §7, §8, §12, §13): one quick
# observed run writes every surface, and each is checked —
# - the Perfetto trace has a slice track per simulated CPU and every causal
#   flow point lands inside a CPU slice (tracecheck -flows), and the
#   metrics snapshot passes metricscheck;
# - the printed report has an occupancy line per CPU, the span summary and
#   the causal exemplar table;
# - the sched-doctor JSON has its windows, findings and attribution;
# - cmd/skyloft-top renders a frame from the live NDJSON stream, and
#   cmd/skyloft-explain renders the worst exemplar's critical path;
# - a second identical run writes a byte-identical NDJSON stream (the
#   published stream is a pure function of the seed).
# Then the flight probe on the straggler-core fault plan must dump a valid
# post-mortem bundle — the trace slice passes tracecheck with fault
# instants, the metrics snapshot passes metricscheck, and the manifest names
# the live starvation finding that triggered the dump — and skyloft-trace's
# own -trace-out export must pass tracecheck on its two pinned CPUs.
.PHONY: obs-smoke
obs-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	for run in first replay; do \
		mkdir $$tmp/$$run && \
		$(GO) run ./cmd/skyloft-bench -fig observed -quick -seed 1 \
			-trace-out $$tmp/$$run/trace.json -metrics-out $$tmp/$$run/metrics.json \
			-doctor-out $$tmp/$$run/doctor.json -occupancy \
			-causal-out $$tmp/$$run/causal.json -live-out $$tmp/$$run/live.ndjson \
			> $$tmp/$$run/out.txt || exit 1; \
	done && \
	cmp $$tmp/first/live.ndjson $$tmp/replay/live.ndjson && \
	o=$$tmp/first && \
	$(GO) run ./cmd/tracecheck -cpus 4 -flows 1 $$o/trace.json && \
	$(GO) run ./cmd/metricscheck $$o/metrics.json && \
	for cpu in 0 1 2 3; do grep -q "cpu $$cpu " $$o/out.txt || exit 1; done && \
	grep -q 'spans:' $$o/out.txt && \
	grep -q 'causal: .* journeys traced' $$o/out.txt && \
	grep -q '"windows"' $$o/doctor.json && \
	grep -q '"findings"' $$o/doctor.json && \
	grep -q '"attribution"' $$o/doctor.json && \
	$(GO) run ./cmd/skyloft-top -in $$o/live.ndjson -once | grep -q 'window #' && \
	$(GO) run ./cmd/skyloft-explain $$o/causal.json > $$o/explain.txt && \
	grep -q 'critical path:' $$o/explain.txt && \
	grep -q 'reply' $$o/explain.txt && \
	$(GO) run ./cmd/skyloft-explain -list $$o/causal.json | grep -q 'sojourn=' && \
	$(GO) run ./cmd/skyloft-bench -chaos straggler-core -seed 1 \
		-flight-dir $$tmp/flight > $$tmp/flight.txt && \
	$(GO) run ./cmd/tracecheck -cpus 4 -faults 1 $$tmp/flight/trace.json && \
	$(GO) run ./cmd/metricscheck $$tmp/flight/metrics.json && \
	grep -q '"reason": "live finding: starvation"' $$tmp/flight/manifest.json && \
	$(GO) run ./cmd/skyloft-trace -dur 2ms -n 0 -trace-out $$tmp/trace.json > /dev/null && \
	$(GO) run ./cmd/tracecheck -cpus 2 $$tmp/trace.json && \
	echo "obs-smoke OK"

# Regenerate the committed machine-readable benchmark report (quick sweep,
# seed 1 — the configuration bench-gate compares against). Run this, review
# the diff, and commit the result whenever a change intentionally moves a
# benchmark.
.PHONY: bench-json
bench-json:
	$(GO) run ./cmd/skyloft-bench -report-only -quick -seed 1 -report-out BENCH_skyloft.json

# Benchmark regression gate: rebuild the report and compare it against the
# committed BENCH_skyloft.json with cmd/benchdiff's default tolerances.
# Fails (non-zero) on metric drift beyond tolerance, disappeared metrics, or
# new pathology findings.
.PHONY: bench-gate
bench-gate:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) run ./cmd/skyloft-bench -report-only -quick -seed 1 -report-out $$tmp/candidate.json && \
	$(GO) run ./cmd/benchdiff BENCH_skyloft.json $$tmp/candidate.json

# Chaos gate (DESIGN.md §10): run every fault-plan preset twice plus a clean
# twin — deterministic replay (trace hash, event total and dispatched count
# bit-identical), zero invariant violations, hardening demonstrably
# engaged, bounded p99.9 degradation — then validate the exported Perfetto
# trace carries fault instants on the CPU tracks.
.PHONY: chaos
chaos:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) run ./cmd/skyloft-bench -chaos all -seed 1 -chaos-trace-out $$tmp/chaos.json && \
	$(GO) run ./cmd/tracecheck -cpus 4 -faults 1 $$tmp/chaos.json && \
	echo "chaos OK"

# Oversubscription survival gate (DESIGN.md §15): run the cross-runtime
# lease preset twice — bit-identical replay (trace hash, event total and
# dispatched count), zero cross-app invariant violations, forced
# revocation demonstrably engaged under the dropped vacate IPIs, measured
# reclaim p99 inside the protocol's bound.
.PHONY: oversub
oversub:
	$(GO) run ./cmd/skyloft-bench -oversub all -seed 1
	@echo "oversub OK"

# Examples smoke: run every program under examples/ and fail on the first
# non-zero exit. Each takes well under a second once built. Its exit status
# is the check: examples/multiapp exits non-zero unless a best-effort core
# was granted and reclaimed under the injected notification suppression,
# the hardening layer engaged, and no invariant was violated.
.PHONY: examples-smoke
examples-smoke:
	@for d in examples/*/; do \
		$(GO) run ./$${d%/} > /dev/null || { echo "examples-smoke: $$d failed"; exit 1; }; \
	done
	@echo "examples-smoke OK"
