#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the
# program (see main.go, or -h). Run from the repository root:
#
#   bash bench/run.sh -workload dsp-seq -seed 3 -seconds 15 -trace 0
#
# Everything the build writes — the binary, the Go build cache, compiler
# temporaries — stays under .bench_build/ in the repository root, so a
# run reads and writes nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
