#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (relative to the
# directory it is started from, which must be the repository root) and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-query --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary build
# directories) stays under .bench_build/. Outside a repository checkout the
# build fails, and so does this script, without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
