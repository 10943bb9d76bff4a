GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt-check vet test race stress fuzz-smoke perfbench-check bench bench-gate bench-smoke ci

# The committed benchmark baseline: a `make bench` summary recorded with its
# host. cmd/benchjson checks its gate table against it. A change that moves a
# gated number runs `make bench` on a quiet machine and copies BENCH.json
# over this file.
BENCH_BASELINE ?= BENCH_baseline.json

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

# Benchmark sweep: every benchmark of the module, three runs each, which
# cmd/benchjson reduces to their medians and writes, with the host, to
# BENCH.json. It reports each benchmark's change against $(BENCH_BASELINE)
# and checks every row of its gate table (cmd/benchjson/gate.go). `make
# bench` archives the text under results/bench.txt and only reports the
# verdict; `make bench-gate` runs the same sweep and fails on it. The table's
# wall-clock rows (Fig1 within 2%, ClusterDispatch within 5%) hold only on a
# quiet machine, so ci checks just its ci rows, in bench-smoke.
bench bench-gate:
	@mkdir -p results
	$(GO) test -bench . -benchmem -count=3 -run '^$$' ./... | tee results/$@.txt
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) $(if $(filter bench,$@),-report-only) -o BENCH.json results/$@.txt

# Benchmark smoke: every benchmark compiles and survives one iteration, and
# the gate table's ci rows hold on that pass: the allocation counts, and a
# coarse ns/op bound on Fig1 and Fig3.
bench-smoke:
	@mkdir -p results
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./... > results/bench-smoke.txt
	$(GO) run ./cmd/benchjson -ci -compare $(BENCH_BASELINE) results/bench-smoke.txt

ci: build fmt-check vet race fuzz-smoke perfbench-check bench-smoke
