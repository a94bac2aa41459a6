#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload query_http --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
