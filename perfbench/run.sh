#!/usr/bin/env bash
# Builds the served-path benchmark from the checkout it is run in, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload exact-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes stays under the
# checkout: the Go build cache, the binary and the store data go below
# $CARGO_TARGET_DIR (default .bench_build). Outside a full checkout the
# build fails and it exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --data "$out/perfbench-data" "$@"
