#!/usr/bin/env bash
# Entry point of the benchmark (see BENCHMARK.json and bench/README.md).
# Builds the driver inside the checkout and runs it from the checkout root;
# the driver then builds ./cmd/valoisd from the same checkout. The go build
# cache and temporary files stay under .bench_build/, so nothing outside
# the checkout is read or written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
