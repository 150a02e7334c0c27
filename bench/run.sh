#!/usr/bin/env bash
# Builds thriftybench from source and runs it. Run from the repository
# root; arguments go to the benchmark, for example:
#
#   bash bench/run.sh --workload upload_http --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the benchmark's
# output (summary.json, trace.json, clip containers) all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$build/thriftybench" .
exec "$build/thriftybench" -out "$build/out" "$@"
