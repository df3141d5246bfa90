#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it.
# Run from the repository root; every argument goes to the program:
#
#   bash hpabench/run.sh --workload batch-local --seed 1 --seconds 20 --trace 0
#
# The build cache and binary live in .bench_build/ at the repository root,
# so nothing is written outside the checkout.
set -euo pipefail
root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$bench" && go build -o "$out/hpabench" .)
exec "$out/hpabench" "$@"
