#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#   bash perfbench/run.sh --workload warm-site --seed 1 --seconds 30 --trace 0
# Run from the repository root. The Go build and module caches live under
# .bench_build, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
