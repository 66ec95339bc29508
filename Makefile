GO ?= go

# Tier-1+ gate: everything CI (and the next contributor) should run before
# merging, in order: `vet` + `build`, then `lint` (simlint determinism
# checks + gofmt — static, so it runs before the expensive dynamic gates),
# the full test suite under the race detector (the parallel sweep runner
# makes -race meaningful), a short benchmark smoke to catch accidental
# allocation regressions in the event core, the observability smoke, and
# the benchmark regression gate against the committed BENCH_skyloft.json.
.PHONY: check
check: vet build lint race bench-smoke trace-smoke live-smoke causal-smoke bench-gate chaos oversub

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

# A handful of iterations only — this is a smoke test that the benchmarks
# still compile and run, not a measurement; the LSM pair's -benchmem line
# makes an accidental per-SCAN sort or map visible, and the proc pair's
# (one Resume→Ask round trip, one pooled thread life) a per-switch
# allocation; the thread-per-request window (~100 NIC requests through
# core + worksteal + server) and the runqueue cycle must show 0 allocs/op,
# so a reintroduced per-request or per-enqueue allocation is visible here.
# Real numbers: see EXPERIMENTS.md ("Event-core performance") and
# `go test -bench . -benchmem`.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkClock' -benchtime 100x -benchmem ./internal/simtime/
	$(GO) test -run '^$$' -bench 'BenchmarkFig7Sweep$$' -benchtime 1x -benchmem ./internal/bench/
	$(GO) test -run '^$$' -bench 'BenchmarkLSM' -benchtime 100x -benchmem ./internal/apps/kvstore/
	$(GO) test -run '^$$' -bench 'BenchmarkResumeAsk|BenchmarkPoolLife' -benchtime 100x -benchmem ./internal/proc/
	$(GO) test -run '^$$' -bench 'BenchmarkThreadPerRequest' -benchtime 100x -benchmem ./internal/apps/server/
	$(GO) test -run '^$$' -bench 'BenchmarkDeque' -benchtime 100x -benchmem ./internal/policy/

# End-to-end observability smoke: run skyloft-trace with all four
# observability outputs, verify the Perfetto JSON parses and has a slice
# track per simulated CPU (the workload pins CPUs {0,1}), check the
# occupancy report covers both cores, and check the sched-doctor diagnosis
# is well-formed JSON with the expected sections.
.PHONY: trace-smoke
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) run ./cmd/skyloft-trace -dur 2ms -n 0 \
		-trace-out $$tmp/trace.json -metrics-out $$tmp/metrics.json \
		-doctor-out $$tmp/doctor.json -occupancy \
		> $$tmp/out.txt && \
	$(GO) run ./cmd/tracecheck -cpus 2 $$tmp/trace.json && \
	$(GO) run ./cmd/metricscheck $$tmp/metrics.json && \
	grep -q 'cpu 0' $$tmp/out.txt && grep -q 'cpu 1' $$tmp/out.txt && \
	grep -q 'spans:' $$tmp/out.txt && \
	grep -q '"windows"' $$tmp/doctor.json && \
	grep -q '"findings"' $$tmp/doctor.json && \
	echo "trace-smoke OK"

# Live-telemetry smoke (DESIGN.md §12): stream a short run's snapshots over
# NDJSON twice and require the printed stream hash to be identical (the
# published stream is a pure function of the seed); render the stream once
# through cmd/skyloft-top; then run the flight probe
# on the straggler-core fault plan and validate the recorder's post-mortem
# bundle — the trace slice passes cmd/tracecheck with fault instants, the
# metrics snapshot passes cmd/metricscheck, and the manifest names the live
# starvation finding that triggered the dump.
.PHONY: live-smoke
live-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) run ./cmd/skyloft-trace -dur 2ms -n 0 \
		-live-out $$tmp/first.ndjson > $$tmp/first.txt && \
	$(GO) run ./cmd/skyloft-trace -dur 2ms -n 0 \
		-live-out $$tmp/replay.ndjson > $$tmp/replay.txt && \
	grep -o 'stream [0-9a-f]*' $$tmp/first.txt > $$tmp/h-first && \
	grep -o 'stream [0-9a-f]*' $$tmp/replay.txt > $$tmp/h-replay && \
	test -s $$tmp/h-first && cmp $$tmp/h-first $$tmp/h-replay && \
	$(GO) run ./cmd/skyloft-top -in $$tmp/first.ndjson -once \
		| grep -q 'window #' && \
	$(GO) run ./cmd/skyloft-bench -chaos straggler-core -seed 1 \
		-flight-dir $$tmp/flight > $$tmp/flight.txt && \
	$(GO) run ./cmd/tracecheck -cpus 4 -faults 1 $$tmp/flight/trace.json && \
	$(GO) run ./cmd/metricscheck $$tmp/flight/metrics.json && \
	grep -q '"reason": "live finding: starvation"' $$tmp/flight/manifest.json && \
	echo "live-smoke OK"

# Causal-tracing smoke (DESIGN.md §13): run the Fig. 5 companion probe with
# the per-request causal tracer attached, validate the Perfetto export's
# flow arrows bind every journey point inside a CPU slice (tracecheck
# -flows), require the printed exemplar table, and render the worst
# exemplar's annotated timeline with cmd/skyloft-explain — the grep pins
# the per-edge critical-path line that must sum to the sojourn.
.PHONY: causal-smoke
causal-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) run ./cmd/schbench -fig 5 -reqs 5 -seed 1 \
		-causal-out $$tmp/causal.json -trace-out $$tmp/trace.json \
		> $$tmp/out.txt && \
	grep -q 'causal: .* journeys traced' $$tmp/out.txt && \
	$(GO) run ./cmd/tracecheck -cpus 4 -flows 1 $$tmp/trace.json && \
	$(GO) run ./cmd/skyloft-explain $$tmp/causal.json > $$tmp/explain.txt && \
	grep -q 'critical path:' $$tmp/explain.txt && \
	grep -q 'reply' $$tmp/explain.txt && \
	$(GO) run ./cmd/skyloft-explain -list $$tmp/causal.json | grep -q 'sojourn=' && \
	echo "causal-smoke OK"

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

# Oversubscription survival gate (DESIGN.md §15): run both lease presets
# twice — bit-identical replay (trace hash, event total and dispatched
# count), zero cross-app invariant violations, forced revocation
# demonstrably engaged under the borrower stall, measured reclaim p99
# inside the protocol's bound — then run the
# examples/multiapp smoke, which exits non-zero unless the injected
# borrower stall actually forced at least one revocation.
.PHONY: oversub
oversub:
	$(GO) run ./cmd/skyloft-bench -oversub all -seed 1
	$(GO) run ./examples/multiapp > /dev/null
	@echo "oversub OK"
