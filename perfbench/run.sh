#!/usr/bin/env bash
# run.sh builds the benchmark from the sources in this checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload warm-grids --seed 1 --seconds 10 --trace 0
#
# The Go build and module caches and every file the benchmark writes stay
# under .bench_build/ in the checkout.
set -euo pipefail
root="$PWD"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOFLAGS=
# Stamping the git commit needs a git checkout; build without it elsewhere.
go build -C "$root/perfbench" -o "$out/perfbench" . >&2 2>/dev/null ||
    go build -C "$root/perfbench" -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
