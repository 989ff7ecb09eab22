#!/usr/bin/env bash
# Builds flperf from source and runs it with the given arguments. Run from
# the root of a checkout: every build and temporary file stays under
# .bench_build there, and a directory holding only the benchmark fails the
# build (and so exits non-zero without a result).
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
# The build needs the standard library and this checkout alone, so
# GOPROXY=off keeps it off the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go -C cmd/flperf build -o "$out/flperf" .
exec "$out/flperf" "$@"
