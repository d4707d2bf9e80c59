#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build writes (the binary,
# Go's build cache, GOPATH and configuration directory) goes under
# .bench_build/ in the checkout, so a run touches nothing outside it.
#
#   bash benchmark/run.sh --workload jacobi --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -check        # two full sets, compared to the bounds
#   bash benchmark/run.sh -layers       # isolated per-layer drivers only
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

# The benchmark is its own module (benchmark/go.mod) that replaces module
# repro with the checkout around it; without that source the build fails
# and the script exits non-zero.
(cd "$here" && go build -o "$build/samhita-benchmark" .)

cd "$root"
exec "$build/samhita-benchmark" "$@"
