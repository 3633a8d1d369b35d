#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags. Run from the repository root:
#
#   bash bench/run.sh -workload replay-clean -seed 1 -seconds 10
#
# The binary and the Go build cache live in .bench_build/ at the root, so
# a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS="-mod=readonly -buildvcs=false"
go -C bench build -o "$out/mhmbench" .
exec "$out/mhmbench" "$@"
