#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (compiler cache and temporary
# files included, so nothing is written outside the checkout), then runs it
# with the given arguments. `go run ./bench ...` does the same for a person
# at a terminal; this wrapper exists because the Go tool otherwise keeps its
# cache in $HOME and its temporary files in /tmp.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/warper-bench" ./bench
exec "$build/warper-bench" "$@"
