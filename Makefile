GO ?= go
GOFMT ?= gofmt

# Pinned versions of the external analysis tools CI installs; bump
# deliberately, never track latest.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race vet fmt-check examples lint lint-tools lint-fixtures lint-json fuzz-smoke faults-race service-race soak-race elastic-race bench bench-hot bench-json bench-churn bench-service bench-soak bench-elastic bench-obs verify clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting gate: every Go file must be gofmt-clean, except the analyzer
# fixtures under testdata/, which keep the layouts their tests expect.
fmt-check:
	@out=$$($(GOFMT) -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*')); \
	if [ -n "$$out" ]; then echo "gofmt -l: these files need gofmt -w:"; echo "$$out"; exit 1; fi

# Examples smoke: run every examples/* main to completion. They have no
# tests of their own, and each finishes in well under a second. Three
# check their own results and exit non-zero when a check fails:
# exactgap when Algorithm 1 misses the simplex's SD optimum on any of
# its 200 instances or on its spread instance, whose optimum must be
# positive, or when its Algorithm 2 batches (at most one VM per node)
# have a zero exact GSD optimum or a heuristic total below it;
# batchqueue when either arm serves without queueing; and migration
# when its migrating arm applies no move or does not end below its
# distance at placement.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$${d%/}"; \
		$(GO) run ./$${d%/} > /dev/null || exit 1; \
	done

# Static-analysis gate: the repo's own analyzer suite (aliasret,
# detrand, errdrop, maporder — see DESIGN.md §10 and §15)
# plus staticcheck and govulncheck when installed. CI installs the
# pinned versions via lint-tools; offline checkouts skip the external
# tools with a notice so `make lint` stays runnable anywhere.
lint:
	$(GO) run ./cmd/affinitylint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else echo "lint: staticcheck not installed (CI pins $(STATICCHECK_VERSION)); skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else echo "lint: govulncheck not installed (CI pins $(GOVULNCHECK_VERSION)); skipping"; fi

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# The analyzers' own tests: fixture suites (testdata/src + // want) and
# the driver and loader unit tests. Fast — it skips the whole-repo
# self-host re-lint that `make test` runs.
lint-fixtures:
	$(GO) test ./internal/lint/...

# Machine-readable findings for CI artifacts; [] on a clean tree. The
# command exits 0 even with findings so the artifact always uploads —
# the `lint` target is the pass/fail gate.
lint-json:
	$(GO) run ./cmd/affinitylint -json ./... > LINT.json || true
	@cat LINT.json

# Native fuzz targets, ~10s each: topology JSON import (reject or
# round-trip, never panic), the tier index's cover tree (FirstCover
# equals a lowest-ID row scan and every aggregate equals a rebuild after
# each cell change and row zeroing or restore, on scrambled plants too),
# the inventory's ops against a naive model that keeps M and C (list and
# dense commits with repeated, negative, out-of-range or mis-shaped
# input, moves, failures and restores: each succeeds exactly when the
# model's does, a failure changes nothing, and the attached index stays
# consistent),
# Algorithm 1 placement (capacity respected, mismatched matrix widths
# rejected, the pruned scan places exactly as the Exhaustive oracle,
# evaluator DC(C) matches the row-scan oracle), the exact shrink
# (victims sum to the delta, no cell goes negative, and the DC left is
# the least of a brute-force enumeration of every removal),
# Algorithm 1 against the SD oracle (dense Place and SolveSDLP agree on
# solved, infeasible, malformed or overflowing input, and on the
# optimum), and the trace encoder's quoting fast path and float encoder
# (its integer path and shortest-digit kernel), byte-equal to
# strconv.AppendQuote and strconv.AppendFloat.
# The float target gets 40s: replaying its ~16k seeds (every power of
# two and ten with neighbours, both signs) takes ~20s of it on two cores
# before mutation starts.
fuzz-smoke:
	$(GO) test ./internal/topology -run '^$$' -fuzz '^FuzzTopologyImportJSON$$' -fuzztime 10s
	$(GO) test ./internal/affinity -run '^$$' -fuzz '^FuzzFirstCover$$' -fuzztime 10s
	$(GO) test ./internal/inventory -run '^$$' -fuzz '^FuzzInventoryOps$$' -fuzztime 10s
	$(GO) test ./internal/placement -run '^$$' -fuzz '^FuzzPlaceRequest$$' -fuzztime 10s
	$(GO) test ./internal/placement -run '^$$' -fuzz '^FuzzReleaseSubset$$' -fuzztime 10s
	$(GO) test ./internal/sdexact -run '^$$' -fuzz '^FuzzSolveSD$$' -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzAppendQuote$$' -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzAppendFloat$$' -fuzztime 40s

# Fault-injection gate: the fault/recovery tests under the race detector
# plus one seeded end-to-end faults figure, so every recovery path runs
# race-checked on each change.
faults-race:
	$(GO) test -race ./internal/faults ./internal/cloudsim ./internal/experiments -run 'Fault|Crash|Teardown|Recovery'
	$(GO) run -race ./cmd/affinitysim -fig faults > /dev/null

# Placement-service gate: the concurrency-sensitive service tests (the
# place/release and grow/shrink hammers, Close against in-flight
# callers) and the differential test against direct sparse calls, ten
# times over under the race detector, since lock order varies run to
# run.
service-race:
	$(GO) test -race -count=10 ./internal/service -run 'Service'

# Streaming-replay gate: the soak scenario and the stream/retained
# parity tests under the race detector, plus one seeded soak figure at a
# reduced request count so the whole RunStream path (lazy arrivals,
# sketches, fault teardown rollback) runs race-checked on each change.
soak-race:
	$(GO) test -race ./internal/cloudsim ./internal/experiments ./internal/trace ./internal/workload -run 'Stream|Soak|OpenLoop'
	$(GO) run -race ./cmd/affinitysim -fig soak -requests 20000 > /dev/null

# Elastic-resize gate: the delta-placement, mid-job resize, and
# grow/shrink service tests under the race detector, plus the event
# heap's re-arm tests, the elastic golden differential and one seeded
# end-to-end elastic figure, so every resize path (PlaceDelta, the exact
# ReleaseSubset shrink and its brute-force property test, deadline
# admission, deferred grows parking and waking on freed capacity or an
# emptied queue, teardown cancellation) runs race-checked on each
# change. The allocation gates among them skip
# under -race; `make test` runs them.
elastic-race:
	$(GO) test -race ./internal/placement ./internal/cloudsim ./internal/experiments ./internal/service ./internal/eventsim -run 'Elastic|PlaceDelta|ReleaseSubset|DeltaChurn|GrowShrink|ShrinkWakes|GrowInsufficient|Reschedule|Rearm|ContainerHeap'
	$(GO) run -race ./cmd/affinitysim -fig elastic > /dev/null

# Full benchmark suite: every table/figure plus ablations.
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/experiments

# Just the hot-path benchmarks gated by the performance acceptance
# criteria (incremental vs scratch DC evaluation, Algorithm 1/2 cost).
bench-hot:
	$(GO) test -run '^$$' -bench 'BenchmarkDistance(Scratch|Incremental)$$|BenchmarkOnlinePlace$$|BenchmarkAblationTransferFixpoint' .

# Scale benchmarks (1×3×10 → 100×100×100 plants, pruned vs exhaustive
# center scan; Algorithm 2 and the migration planner from 1×3×10 to
# 4×16×16) recorded as machine-readable JSON. A fixed 100-iteration
# benchtime keeps the run deterministic in length while averaging enough
# iterations to hold timer noise down; benchjson rejects any
# single-iteration result, so -benchtime=1x can't sneak back in.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkPlaceScale|BenchmarkExchangeScale' -benchmem -benchtime=100x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_placement.json
	@cat BENCH_placement.json

# Steady-state churn benchmarks (release oldest / place identical /
# commit, plus a fail-restore mix) against the live inventory with the
# persistent tier index attached, up to the 1M-node plant.
bench-churn:
	$(GO) test -run '^$$' -bench 'BenchmarkChurn' -benchmem -benchtime=100x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_churn.json
	@cat BENCH_churn.json

# Serving throughput (place + release round trips per second at 1, 8,
# and 64 concurrent clients) recorded as machine-readable JSON. The
# higher fixed iteration count amortizes client goroutine startup so the
# figure reflects steady-state serving, not spawn cost; the run still
# finishes in well under a second.
bench-service:
	$(GO) test -run '^$$' -bench 'BenchmarkService' -benchmem -benchtime=20000x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_service.json
	@cat BENCH_service.json

# Soak benchmark (100k- and 1M-request streaming replays) recorded as
# machine-readable JSON. Each op is itself a long internally-averaged
# run, so -benchtime=1x is correct here: benchjson accepts the
# single-iteration results because they carry custom metrics (req/s,
# peak-heap-bytes), which are the figures that matter. -benchmem records
# each replay's allocs/op and B/op. One op is a whole replay, whose
# allocs/op moves by up to 13 run to run on unchanged code, so
# `benchjson -compare BENCH_soak.json` judges these one-iteration arms by
# a 0.5% relative slack instead of the +1 it allows every other arm.
bench-soak:
	$(GO) test -run '^$$' -bench 'BenchmarkSoak' -benchmem -benchtime=1x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_soak.json
	@cat BENCH_soak.json

# Mid-job resize benchmarks (grow-by-k through PlaceDeltaSparse and
# shrink-by-k through ReleaseSubsetSparse against populated 16k- and
# 1M-node plants) recorded as machine-readable JSON. Same fixed
# 100-iteration benchtime as bench-json/bench-churn.
bench-elastic:
	$(GO) test -run '^$$' -bench 'BenchmarkPlaceDelta|BenchmarkReleaseSubset' -benchmem -benchtime=100x -timeout 30m . | $(GO) run ./cmd/benchjson > BENCH_elastic.json
	@cat BENCH_elastic.json

# Trace encoding (one Emit of each of three soak-elastic event shapes into
# a discarding streaming registry) recorded as machine-readable JSON. A
# fixed 1M-iteration benchtime averages each arm over well under a
# second.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkEmit' -benchmem -benchtime=1000000x ./internal/obs | $(GO) run ./cmd/benchjson > BENCH_obs.json
	@cat BENCH_obs.json

# The pre-merge gate: build, vet, gofmt, lint, full tests, the examples
# smoke, and the race detector.
verify: build vet fmt-check lint test examples race
