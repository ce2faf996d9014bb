#!/usr/bin/env bash
# Builds ladperf from the sources of the checkout it is started in and
# runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload batch-hot --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the benchmark's scratch stores all stay under .bench_build/ there,
# and the build never reaches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$build/ladperf" ./ladperf)
exec "$build/ladperf" "$@"
