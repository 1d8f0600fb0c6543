#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's own sources and runs
# one workload. Run it from the repository root:
#
#	bash perfbench/run.sh --workload lb2-steady --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its
# configuration and telemetry directory, the binary) stays under
# .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
