#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources, then runs it.
#
#   bash perfbench/run.sh --workload grid-miss --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Build products, the Go build cache
# and trace files all stay under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/trace" "$@"
