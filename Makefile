# Development targets. `make check` is the pre-merge gate: it runs the
# tier-1 suite plus vet/format lint and the race-detector pass over the
# concurrent service layers.

GO ?= go

.PHONY: all build test race vet fmt fuzz bench bench-check benchsmoke workersmoke storesmoke batchsmoke lanesmoke profile check serve

all: check

# Benchmarks that define the performance contract of the hot path. The
# core table benchmarks run once each (they are full optimizations, not
# microbenchmarks) and the parsed numbers land in BENCH_core.json.
# Table[1-7] covers every table of the paper (the old [13456] class
# silently skipped Table2MeanSigma and Table7Effort). SweepOTA16 is the
# batch-engine contract: the shared-evaluation-cache run must answer
# >=30% of would-be simulator calls cross-job (it fails the bench
# otherwise). BackendsOTA tracks the registered search backends side by
# side on the same OTA task. CoordSearch is the Eq.-19 coordinate
# search alone at the paper's Table-6 scale (N = 10,000). ACSweep is the
# folded-cascode open-loop AC sweep (full grid plus one-point head), the
# layer Monte-Carlo verification spends most of its time in.
BENCH_PATTERN ?= 'Table[1-7]|SweepOTA16|BackendsOTA|CoordSearch|ACSweep'
bench: build
	$(GO) test -run xxx -bench $(BENCH_PATTERN) -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchreport -o BENCH_core.json \
			-baseline BENCH_baseline.txt \
			-note "make bench ($(BENCH_PATTERN), -benchtime 1x, single run); baseline = pre-memoization seed (commit 3e9f61b)"

# Performance regression gate: re-run the hottest benchmark, the
# Table-6-scale coordinate search and the AC sweep and fail (exit
# nonzero) if any is
# more than 20% slower than the committed BENCH_core.json, allocates
# more than 20% more, or runs a different number of simulations (a
# machine-invariant count that must match exactly, as must the
# factorization count). Run this before merging changes that touch the simulation or
# optimization hot path; it is not part of `make check` because a full
# Table-1 optimization takes minutes.
bench-check: build
	$(GO) test -run xxx -bench 'Table1FoldedCascode$$|CoordSearch$$|ACSweep$$' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchreport -o /dev/null -compare BENCH_core.json

# One-iteration smoke of the hottest benchmark so `make check` notices a
# broken or pathologically slow optimization path without paying for the
# full suite.
benchsmoke: build
	$(GO) test -run xxx -bench 'Table1FoldedCascode$$' -benchtime 1x . >/dev/null

# CPU/heap/mutex/block profiles of the hottest benchmark (the full
# Table-1 folded-cascode optimization) with a flat top of each. The
# mutex and block profiles are what to read after touching
# internal/sched or the evaluation cache: lock contention and waits on
# in-flight cache entries show up there, not in CPU samples. The
# raw profiles stay in profile.out/ for interactive digging:
#   go tool pprof -http=:8000 profile.out/cpu.pprof
# To profile a live daemon instead, start specwised with -pprof-addr
# :6060 and point pprof at http://host:6060/debug/pprof/.
profile: build
	mkdir -p profile.out
	$(GO) test -run xxx -bench Table1FoldedCascode -benchtime 1x \
		-cpuprofile profile.out/cpu.pprof -memprofile profile.out/mem.pprof \
		-mutexprofile profile.out/mutex.pprof -blockprofile profile.out/block.pprof \
		-o profile.out/specwise.test .
	@echo "== CPU, flat top 15 =="
	$(GO) tool pprof -top -nodecount 15 profile.out/specwise.test profile.out/cpu.pprof
	@echo "== Allocated space, flat top 15 =="
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space \
		profile.out/specwise.test profile.out/mem.pprof
	@echo "== Mutex contention, flat top 10 =="
	$(GO) tool pprof -top -nodecount 10 profile.out/specwise.test profile.out/mutex.pprof
	@echo "== Blocking, flat top 10 =="
	$(GO) tool pprof -top -nodecount 10 profile.out/specwise.test profile.out/block.pprof

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The jobs, server and worker layers are the concurrency-heavy code
# paths (queue, leases, heartbeats); the store joins them because the
# WAL is appended from every mutation path; the spice and wcd packages
# join because the optimizer evaluates circuits (and their shared
# solver-stat counters) from parallel gradient workers; coord, feasopt
# and the search backends join because the engine/backend split moved
# the search loops there and they drive the parallel evaluators; sched
# joins because every one of those pools now admits work through its
# shared semaphore. The circuits oracles run per-spec and full
# evaluations and constraint solves concurrently over one problem's
# shared symbolic cache, effort counters and pooled testbenches, which
# move between the parallel gradient workers as they do under the
# worst-case searches. The mismatch analysis joins because it runs the
# per-spec worst-case searches concurrently through wcd.SearchAll.
race:
	$(GO) test -race ./internal/jobs/... ./internal/server/... ./internal/worker/... \
		./internal/store/... ./internal/core/... ./internal/spice/... ./internal/wcd/... \
		./internal/evalcache/... ./internal/coord/... ./internal/feasopt/... \
		./internal/search/... ./internal/sched/... ./internal/mismatch/...
	$(GO) test -race -run 'TestEvalSpec|TestPooledBench' ./internal/circuits/

# End-to-end smoke of the remote pull-worker binary path: one
# remote-only manager behind httptest, one pull-worker, one verify job.
workersmoke: build
	$(GO) test -run TestWorkerSmoke ./cmd/specwise-worker

# End-to-end smoke of the durable control plane: a real specwised
# process with -store, one finished job, SIGKILL, restart, and a
# bit-identical recovered result. TestCrashRecoverySIGKILL in the same
# package is the exhaustive version (runs under plain `make test`).
storesmoke: build
	$(GO) test -run TestStoreSmoke ./cmd/specwised

# End-to-end smoke of the batch sweep engine: an 8-member OTA seed sweep
# submitted as one batch to a remote-only daemon, drained by a
# pull-worker with its process-local shared evaluation cache; asserts
# cross-job cache hits in the batch effort rollup.
batchsmoke: build
	$(GO) test -run TestBatchSmoke ./cmd/specwise-worker

# End-to-end smoke of the traffic controls: a single-worker daemon
# saturated with optimize jobs still completes an interactive verify
# promptly (weighted lane round-robin), streaming its progress over SSE
# to the terminal state.
lanesmoke: build
	$(GO) test -run TestLaneSmoke ./cmd/specwised

# A short fuzzing pass: each fuzz target runs alone for a fixed 10 s
# (`-fuzz` takes one target per run, so the two store targets run one
# after the other). A failing input lands in the target's
# testdata/fuzz directory and fails the pass. Not part of `make check`,
# whose test step already runs every seed corpus as plain tests.
FUZZ = $(GO) test -run XXX -fuzztime 10s -fuzz
fuzz:
	$(FUZZ) '^FuzzNetlistParse$$' ./internal/netlist
	$(FUZZ) '^FuzzYieldspecParse$$' ./internal/yieldspec
	$(FUZZ) '^FuzzYieldspecEval$$' ./internal/yieldspec
	$(FUZZ) '^FuzzRequestNormalize$$' ./internal/jobs
	$(FUZZ) '^FuzzScanFrames$$' ./internal/store
	$(FUZZ) '^FuzzFrameRoundTrip$$' ./internal/store

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Pre-merge gate. For hot-path changes, additionally run `make
# bench-check` to catch >20% ns/op regressions against BENCH_core.json.
check: build vet fmt test race workersmoke storesmoke batchsmoke lanesmoke benchsmoke

# Run the yield-optimization daemon locally.
serve:
	$(GO) run ./cmd/specwised -addr :8080
