#!/usr/bin/env bash
# Entry point the benchmark driver calls from the checkout root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the load generator (and, through it, ildq-serve and
# ildq-router) from source, keeping the Go build cache, temporary files
# and every output under <checkout>/.bench_build, then runs it. Without
# --workload it runs all four workloads one after another.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomod" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/bin/ildq-benchmark" .)
exec "$build/bin/ildq-benchmark" "$@"
