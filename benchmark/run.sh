#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from the checkout's
# source and runs it with the arguments given. Everything the build writes
# (binary, Go build cache) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
