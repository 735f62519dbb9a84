#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is BENCHMARK.json's command, run from the root of a checkout:
#
#	bash bench/run.sh --workload serve-auction --seed 1 --seconds 28 --trace 0
#
# Everything it writes stays inside the checkout: the binary and the Go
# build cache under .bench_build/, results under bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
BENCH_GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_GIT_SHA
exec "$build/bench" "$@"
