#!/usr/bin/env bash
# CI entry point: tier-1 verification, static checks, and the
# race-enabled pass over the concurrent packages. Mirrors `make ci`
# for environments without make.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== build =="
go build ./...

echo "== test =="
go test ./...

echo "== vet =="
# ./... already spans cmd/; the separate cmd pass was redundant. The
# second pass vets the chaos-only code (failpoint sites and the tests
# that arm them), which the plain build does not compile.
go vet ./...
go vet -tags failpoint ./...

echo "== swlint =="
# Repo-specific invariant suite (DESIGN.md §11), run twice: the plain
# build, then -tags failpoint so the chaos-only code (failpoint sites,
# the tests that arm them) is linted too. The tagged run's JSON report
# keeps every finding, suppressed included — it is the superset view —
# so CI runs accumulate the suppression trajectory alongside the perf
# one.
go run ./cmd/swlint ./...
go run ./cmd/swlint -tags failpoint -json SWLINT_ci.json ./...

echo "== swlintcheck (suppression ratchet) =="
# Compare this run's suppressed-finding counts against the committed
# SWLINT_baseline.json: any analyzer's count growing without an
# explicit baseline bump (scripts/swlintcheck -write-baseline) fails
# the build. The comparison lands in SWLINTCHECK_ci.json for the
# artifact upload.
go run ./scripts/swlintcheck -baseline SWLINT_baseline.json -current SWLINT_ci.json -out SWLINTCHECK_ci.json

echo "== portability build (CGO_ENABLED=0) =="
CGO_ENABLED=0 go build ./...

echo "== race =="
go test -race -short ./...

echo "== chaos (failpoint build, race) =="
# The fault-injection build (DESIGN.md §12): chaos suites force kernel
# panics, transient faults, and breaker trips, and assert quarantine
# reporting plus zero goroutine leaks under the race detector.
go test -race -short -tags failpoint ./...
# The router's connection-pool tests (reuse, stale redial, cut
# exchanges, teardown) race connection teardown against timers, so
# they run three more times.
go test -race -tags failpoint -count=3 -run 'TestPool' ./internal/cluster

echo "== cluster e2e (3-shard chaos gate) =="
# The full scatter-gather stack as it ships, both deployment shapes:
# replicas=1 spawns a 3-shard loopback cluster, SIGKILLs one shard
# mid-search, and requires every merged response to stay bit-identical
# to a single-node search of the shards that answered with the dead
# shard reported partial; replicas=2 spawns 3 shards x 2 replicas,
# SIGKILLs a primary mid-search, and requires every response complete
# (partial=false) and bit-identical to the full single-node search —
# the slice is retried on its surviving replica, not skipped. Both
# under the race detector with failpoints compiled in, leakchecked.
go test -race -tags failpoint -run 'TestClusterE2E' -v ./cmd/swrouter

echo "== benchmark module (perfbench) =="
# perfbench/ is its own Go module, so ./... above never compiles it,
# yet it imports swvec/internal/..., launches swserver and swrouter and
# parses their log lines. Vet it and run its tests, whose teardown
# cases SIGTERM and SIGKILL the real binaries (about 12 s).
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== fuzz smoke =="
# -fuzzminimizetime caps how long each newly interesting input is
# minimized; without it, minimizing can take most of the 10 s budget
# and the smoke stops executing new inputs.
go test -fuzz=FuzzAlignWidths -fuzztime=10s -fuzzminimizetime=1s -run FuzzAlignWidths ./internal/core
go test -fuzz=FuzzNativeVsModeled -fuzztime=10s -fuzzminimizetime=1s -run FuzzNativeVsModeled ./internal/core
go test -fuzz=FuzzKernelsVsDiagonal -fuzztime=10s -fuzzminimizetime=1s -run FuzzKernelsVsDiagonal ./internal/core
# Scenario level: Search, MultiSearch and Subroutine against the scalar
# baseline, with scores high enough to reach every saturation tier.
go test -fuzz=FuzzSearchScenarios -fuzztime=10s -fuzzminimizetime=1s -run FuzzSearchScenarios ./internal/sched
go test -fuzz=FuzzFASTADecode -fuzztime=10s -fuzzminimizetime=1s -run FuzzFASTADecode ./internal/seqio

echo "== bench smoke =="
# One iteration of every search benchmark plus the native-vs-modeled
# backend comparison, streamed as test2json into BENCH_ci.json so CI
# runs accumulate a perf trajectory over time. Sub-benchmark names
# carry backend=/width= fields so entries are comparable across PRs.
go test -run '^$' -bench 'BenchmarkSearch|BenchmarkBackends' -benchtime 1x -json . > BENCH_ci.json
grep -q '"Action":"pass"' BENCH_ci.json || { echo "bench smoke failed" >&2; exit 1; }
# Second pass over the gated end-to-end benchmarks only, appended to
# the same stream: benchcheck keys on the fastest run per name, and
# min-of-2 tames the noise a single one-iteration sample carries.
# Scatter sub-names carry replicas= so the replicated routing walk is
# priced separately from the single-copy path.
go test -run '^$' -bench 'BenchmarkSearch(EndToEnd|Pipeline|Scatter)' -benchtime 1x -json . >> BENCH_ci.json

echo "== benchcheck (regression gate) =="
# Compare this run's end-to-end search benchmarks against the
# committed baseline, keyed by full sub-benchmark name (backend=/
# width=/kernel= fields). A >30% ns/op regression fails the build; the
# full comparison lands in BENCHCHECK_ci.json for the artifact upload.
go run ./scripts/benchcheck -baseline BENCH_baseline.json -current BENCH_ci.json -out BENCHCHECK_ci.json

echo "ci: all checks passed"
