#!/usr/bin/env bash
# Builds the benchmark (bench/, a Go module of its own that compiles the
# repository from source) into .bench_build and runs it with the given
# flags.  Run from the repository root:
#
#   bash bench/run.sh --workload cold-suite --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The toolchain keeps its settings and telemetry counters under the user
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

bin="$out/bench"
stale=""
if [ -x "$bin" ]; then
	stale=$(find "$root" \( -path "$out" -o -path "$root/.git" \) -prune -o \
		\( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)
fi
if [ ! -x "$bin" ] || [ -n "$stale" ]; then
	(cd "$root/bench" && go build -o "$bin" .)
fi
exec "$bin" --workdir "$out" "$@"
