#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments (see README.md). Everything the build writes — the Go
# build cache, its temporary files, the go command's telemetry counters
# and the binary — stays under $CARGO_TARGET_DIR, or .bench_build when
# that is unset, so the run touches nothing outside the checkout. Run
# from the repository root:
#
#	bash perfbench/run.sh --workload evaluate --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
