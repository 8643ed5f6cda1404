#!/usr/bin/env bash
# Builds cqbench from source and runs it with the given arguments. Run it
# from the root of a checkout:
#
#   bash cqbench/run.sh --workload analytic --seed 1 --seconds 20 --trace 0
#
# The build, the Go caches, the trace files and the run's scratch data
# directories all live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/cqbench" && go build -o "$build/cqbench" .) >&2
exec "$build/cqbench" --out "$build" "$@"
