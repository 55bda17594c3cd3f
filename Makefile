GO ?= go

.PHONY: all verify fmt vet lint portable race chaos cluster-e2e perfbench-test fuzz bench bench-smoke bench-backends benchcheck ci

all: verify

# Tier-1 gate: everything compiles and every test passes.
verify:
	$(GO) build ./...
	$(GO) test ./...

# Formatting gate: fails if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Plain, then -tags failpoint so the chaos-only code is vetted too.
vet:
	$(GO) vet ./...
	$(GO) vet -tags failpoint ./...

# Repo-specific invariants (DESIGN.md §11): hot-path allocations,
# lane-width derivation, scheduler goroutine/channel lifecycle, metrics
# atomicity, compiler-verified bounds-check freedom, goroutine
# cancellation, failpoint registry hygiene, and the wire-code failure
# contract. Runs plain and with -tags failpoint (chaos-only code is
# invisible to the plain load), then ratchets the suppression count
# against SWLINT_baseline.json — exactly the sequence CI runs, so a
# local `make lint` failure is a CI failure.
lint:
	$(GO) run ./cmd/swlint ./...
	$(GO) run ./cmd/swlint -tags failpoint -json SWLINT_ci.json ./...
	$(GO) run ./scripts/swlintcheck -baseline SWLINT_baseline.json -current SWLINT_ci.json -out SWLINTCHECK_ci.json

# Portability gate: everything must build without cgo.
portable:
	CGO_ENABLED=0 $(GO) build ./...

# Race-enabled pass over every package. -short skips the long 32-bit
# escalation alignment and the whole-module analysis reload.
race:
	$(GO) test -race -short ./...

# Chaos pass: the failpoint build compiles in the fault-injection
# sites, and the chaos suites force kernel panics, transient faults,
# and breaker trips under the race detector (DESIGN.md §12). The
# router's connection-pool tests (reuse, stale redial, cut exchanges,
# teardown) then run three more times, since their races are timing
# races.
chaos:
	$(GO) test -race -short -tags failpoint ./...
	$(GO) test -race -tags failpoint -count=3 -run 'TestPool' ./internal/cluster

# Cluster chaos gate: real swserver shard processes behind swrouter,
# concurrent queries, one process SIGKILLed mid-search. At replicas=1
# merged results must stay bit-identical to single-node search over
# the shards that answered, with the dead shard reported partial; at
# replicas=2 killing a primary must cost nothing — every response
# complete via failover to the surviving replica. No goroutine leaks
# (race detector + failpoints on).
cluster-e2e:
	$(GO) test -race -tags failpoint -run 'TestClusterE2E' -v ./cmd/swrouter

# Benchmark module gate: perfbench/ is a separate Go module that
# ./... never reaches, yet it imports swvec/internal/..., launches
# swserver and swrouter and parses their log lines. Its teardown tests
# SIGTERM and SIGKILL the real binaries.
perfbench-test:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Differential fuzz smoke: every width instantiation of the generic
# kernel against the scalar baseline, the three search scenarios and
# their 8/16/32-bit saturation ladder against the same baseline, and
# the lenient FASTA decoder against arbitrary input, for a few seconds
# each. -fuzzminimizetime caps the minimization of each newly
# interesting input so it cannot take most of the fuzzing budget.
fuzz:
	$(GO) test -fuzz=FuzzAlignWidths -fuzztime=10s -fuzzminimizetime=1s -run FuzzAlignWidths ./internal/core
	$(GO) test -fuzz=FuzzNativeVsModeled -fuzztime=10s -fuzzminimizetime=1s -run FuzzNativeVsModeled ./internal/core
	$(GO) test -fuzz=FuzzKernelsVsDiagonal -fuzztime=10s -fuzzminimizetime=1s -run FuzzKernelsVsDiagonal ./internal/core
	$(GO) test -fuzz=FuzzSearchScenarios -fuzztime=10s -fuzzminimizetime=1s -run FuzzSearchScenarios ./internal/sched
	$(GO) test -fuzz=FuzzFASTADecode -fuzztime=10s -fuzzminimizetime=1s -run FuzzFASTADecode ./internal/seqio

# Figure + kernel benchmarks with allocation reporting.
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# One-iteration search + backend-comparison benchmarks streamed into
# BENCH_ci.json — the CI perf-trajectory artifact. Sub-benchmark names
# carry backend=/width= fields so entries are comparable across PRs.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSearch|BenchmarkBackends' -benchtime 1x -json . > BENCH_ci.json
	@grep -q '"Action":"pass"' BENCH_ci.json || { echo "bench smoke failed"; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkSearch(EndToEnd|Pipeline|Scatter)' -benchtime 1x -json . >> BENCH_ci.json

# Full native-vs-modeled kernel comparison (pair and batch, both
# widths) with allocation reporting.
bench-backends:
	$(GO) test -run '^$$' -bench 'BenchmarkBackends' -benchmem .

# Regression gate: this run's BENCH_ci.json against the committed
# BENCH_baseline.json; >30% ns/op on any end-to-end search benchmark
# fails. Regenerate the baseline (make bench-smoke, then copy) when a
# deliberate perf change lands.
benchcheck:
	$(GO) run ./scripts/benchcheck -baseline BENCH_baseline.json -current BENCH_ci.json -out BENCHCHECK_ci.json

ci: fmt verify vet lint portable race chaos cluster-e2e perfbench-test fuzz bench-smoke benchcheck
