#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it: the
# command BENCHMARK.json names. Everything the Go toolchain writes (build
# cache, temporary files, the binary) goes under .bench_build, which is
# git-ignored, so a run reads and writes only inside its checkout.
#
# Developers can equally use `go run ./benchmark`; the arguments are the same.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="${GOPATH:-$build/gopath}"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
