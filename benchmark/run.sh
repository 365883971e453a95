#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it; this
# is the command BENCHMARK.json names. Everything the build and the run
# write stays inside the checkout: the Go build cache and the binary
# under .bench_build/, run outputs under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOTOOLCHAIN=local GOTELEMETRY=off
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
