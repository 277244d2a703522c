#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repo root.
# Everything the toolchain writes (build cache, temp files, binaries)
# stays under .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C benchmark -o "$build/bin/mdlbench" .
exec "$build/bin/mdlbench" "$@"
