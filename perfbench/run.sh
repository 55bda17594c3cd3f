#!/usr/bin/env bash
# Builds the benchmark, swserver and swrouter from the checkout it is
# run in, then runs the benchmark. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the benchmark's scratch
# files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
go build -o "$out/swserver" ./cmd/swserver
go build -o "$out/swrouter" ./cmd/swrouter

exec "$out/perfbench" -root "$root" -bin "$out" "$@"
