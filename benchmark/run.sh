#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, keeping
# every file the toolchain and the benchmark write inside the checkout
# (under .bench_build). Arguments are passed through:
#
#   bash benchmark/run.sh --workload fun3d-l3 --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$build/sdm-benchmark" .)
exec "$build/sdm-benchmark" "$@"
