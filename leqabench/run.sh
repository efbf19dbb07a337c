#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given, e.g.
#   bash leqabench/run.sh --workload table3-cold --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build cache, temporary files and span
# output stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root/leqabench"
go build -o "$build/leqabench" .
cd "$root"
exec "$build/leqabench" "$@"
