#!/usr/bin/env bash
# Builds the perfbench binary from the source tree it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload periodic-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# every file a run writes stay under .bench_build/ in that root.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
