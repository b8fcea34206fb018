#!/usr/bin/env bash
# Builds the repository benchmark from source inside the checkout and
# runs it. Run from the repository root; every argument is passed on:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and the benchmark's scratch files
# all live under .bench_build/ so nothing is written outside the tree.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
