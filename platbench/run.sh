#!/usr/bin/env bash
# Builds the platform benchmark from source and runs it. Run from the
# repository root: bash platbench/run.sh --workload classify --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOENV=off GOPROXY=off
(cd "$root/platbench" && go build -o "$build/platbench" .)
exec "$build/platbench" "$@"
