#!/usr/bin/env bash
# Builds the serving-path benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash servebench/run.sh --workload replay-dense --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary, and the run's WAL, checkpoint and trace
# files all live under .bench_build in the checkout; the go command's
# user configuration and telemetry are pointed there too.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -spec servebench/workloads.json -scratch "$out" "$@"
