GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt-check vet test race stress fuzz-smoke perfbench-check bench bench-smoke bench-compare bench-compare-smoke bench-dispatch-gate bench-distilled-gate bench-learning-gate ci

# Committed benchmark baseline that bench-compare diffs against.
BENCH_BASELINE ?= BENCH_pr4.json
# Where `make bench` writes its machine-readable summary: one rolling file,
# so a plain run never overwrites a committed BENCH_prN.json record.
BENCH_OUT ?= BENCH.json

all: ci

build:
	$(GO) build ./...

# gofmt -l prints offending files; a non-empty list fails the target.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The job subsystem is concurrent; the race detector is part of tier-1.
race:
	$(GO) test -race ./...

# Ordering stress: the tests that catch a job reading as finished before one
# of its side effects (a journaled cell, a cell sharing its run's record, an
# archived trace, a worker's commit credit) has landed, a late DELETE
# changing a job's latched terminal state, or an early one leaving the job's
# cells to run, repeated under the race detector. The target first checks
# that `go test -list` finds every listed test, so a rename cannot silently
# drop one from the loop.
STRESS_TESTS = TestRecoveryTruncateEveryOffset TestSharedCellsJournaledBeforeTerminal \
	TestTraceStoreEvictionHook TestClusterStatusEndpoint \
	TestStoreLatchedStateSurvivesCancel TestStoreBindCancelsCancelledJob
STRESS_PKGS = ./internal/service ./internal/cluster
empty :=
space := $(empty) $(empty)
STRESS_RUN = ^($(subst $(space),|,$(strip $(STRESS_TESTS))))$$
stress:
	@found=$$($(GO) test -list '$(STRESS_RUN)' $(STRESS_PKGS) | grep -c '^Test'); \
	if [ "$$found" -lt $(words $(STRESS_TESTS)) ]; then \
		echo "stress: go test -list finds $$found of the $(words $(STRESS_TESTS)) tests in STRESS_TESTS"; exit 1; fi
	$(GO) test -race -count=20 -run '$(STRESS_RUN)' $(STRESS_PKGS)

# Fuzz smoke: each native fuzz target in FUZZ_TARGETS fuzzes for five
# seconds, in whichever of FUZZ_PKGS declares it, on top of its seed corpus,
# which plain `go test` already runs. Like stress, the target first checks
# that `go test -list` finds every listed target. A new interesting input is
# minimized for at most a second, so a fresh fuzz cache does not spend the
# smoke's time minimizing. A crasher lands in the package's testdata/fuzz/
# and becomes a corpus entry.
FUZZ_TARGETS = FuzzDecodeSpanBatch FuzzHeartbeatMetrics FuzzParseSpec FuzzDecodeCheckpoint
FUZZ_PKGS = ./internal/telemetry ./internal/cluster ./internal/campaign ./internal/policy
FUZZ_RUN = ^($(subst $(space),|,$(strip $(FUZZ_TARGETS))))$$
fuzz-smoke:
	@found=$$($(GO) test -list '$(FUZZ_RUN)' $(FUZZ_PKGS) | grep -c '^Fuzz'); \
	if [ "$$found" -lt $(words $(FUZZ_TARGETS)) ]; then \
		echo "fuzz-smoke: go test -list finds $$found of the $(words $(FUZZ_TARGETS)) targets in FUZZ_TARGETS"; exit 1; fi; \
	for pkg in $(FUZZ_PKGS); do \
		for t in $$($(GO) test -list '$(FUZZ_RUN)' $$pkg | grep '^Fuzz'); do \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 5s -fuzzminimizetime 1s $$pkg || exit 1; \
		done; \
	done

# The end-to-end benchmark (perfbench/, its own module) compiles against part
# of this module's API; vetting and testing it here (including its one-job
# smoke run per workload) turns an API change into a CI failure instead of a
# broken benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Full benchmark sweep (quick-mode experiment regeneration plus the
# micro-benchmarks of every package). The human-readable benchstat text is
# archived under results/ so runs are comparable across commits, and the same
# run is distilled into $(BENCH_OUT) (name -> ns/op, B/op, allocs/op, custom
# b.ReportMetric units, plus each benchmark's ns/op delta against
# $(BENCH_BASELINE)) at the repo root for machine consumption. Override both
# variables to produce a new PR's summary against the previous one.
# -report-only: the sweep records overhead, it is not a gate —
# bench-dispatch-gate is.
bench:
	@mkdir -p results
	$(GO) test -bench . -benchmem -count=1 -run '^$$' ./... | tee results/bench.txt
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -report-only -o $(BENCH_OUT) results/bench.txt

# Benchmark smoke: every benchmark compiles and survives one iteration.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./... > /dev/null

# Regression gate: rerun the figure-campaign benchmarks on HEAD and diff them
# against the committed baseline; >20% ns/op or allocs/op regression fails.
bench-compare:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkFig' -benchmem -count=1 -run '^$$' . | tee results/bench-compare.txt
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) results/bench-compare.txt

# Smoke form of the gate for ci: only the two headline campaigns, two
# iterations each. HEAD sits far below the committed baseline, so even the
# extra timing noise of a short run stays inside the threshold; allocs/op is
# deterministic either way.
bench-compare-smoke:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkFig[13]$$' -benchmem -benchtime 2x -run '^$$' . | tee results/bench-compare-smoke.txt
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) results/bench-compare-smoke.txt

# Span-propagation overhead gate: PR 7 threads trace context through every
# dispatch round trip, so BenchmarkClusterDispatch must stay within 5% ns/op
# of the pre-tracing PR 6 baseline (the recorded delta lands in BENCH_pr7.json
# via `make bench`). -gate-ns: the span batch on the assignment's response
# legitimately allocates — allocs/op is reported, latency gates. Not part of
# ci: a 5% wall-clock gate against a baseline recorded in a different run is
# only meaningful on a quiet machine.
bench-dispatch-gate:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkClusterDispatch$$' -benchmem -count=1 -run '^$$' ./internal/cluster | tee results/bench-dispatch.txt
	$(GO) run ./cmd/benchjson -only 'BenchmarkClusterDispatch' -threshold 0.05 -gate-ns -compare BENCH_pr6.json results/bench-dispatch.txt

# Distillation payoff gate: the distilled policy's decision epoch must stay
# within 50% ns/op of the committed PR 8 baseline (~3ns — a table lookup;
# the Q-table learners sit ~50x above it). Like bench-dispatch-gate, a
# wall-clock gate belongs on a quiet machine, not in ci.
bench-distilled-gate:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkDecisionEpoch$$' -benchmem -count=1 -run '^$$' ./internal/policy | tee results/bench-distilled.txt
	$(GO) run ./cmd/benchjson -only 'BenchmarkDecisionEpoch/distilled' -threshold 0.50 -gate-ns -compare BENCH_pr8.json results/bench-distilled.txt

# Disabled-sampler overhead gate: learning-curve sampling rides the nil
# receiver when no observer is armed, so BenchmarkFig1 (which never arms one)
# must stay within 2% ns/op of the pre-sampling PR 8 baseline. Like
# bench-dispatch-gate, a tight wall-clock gate against a baseline recorded in
# a different run belongs on a quiet machine, not in ci.
bench-learning-gate:
	@mkdir -p results
	$(GO) test -bench 'BenchmarkFig1$$' -benchmem -count=1 -run '^$$' . | tee results/bench-learning.txt
	$(GO) run ./cmd/benchjson -only 'BenchmarkFig1' -threshold 0.02 -gate-ns -compare BENCH_pr8.json results/bench-learning.txt

ci: build fmt-check vet race fuzz-smoke perfbench-check bench-smoke bench-compare-smoke
