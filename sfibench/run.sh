#!/usr/bin/env bash
# Builds the SFI benchmark from source and runs it. Run it from the root of
# the repository; every argument is passed on to the benchmark:
#
#   bash sfibench/run.sh --workload p6lite-uniform --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and all scratch files live in .bench_build/
# at the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/sfibench/go.mod" ]]; then
	echo "sfibench: run from the root of an sfi checkout (go.mod, internal/ and sfibench/ not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/sfibench" && go build -o "$build/sfibench" .)
exec "$build/sfibench" "$@"
