#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# like everything else it writes) and runs it with the caller's arguments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# The benchmark is a package of the program's module. Without the program
# there is nothing to measure: stop before any tool is started.
if [[ ! -f go.mod || ! -d internal/core ]]; then
	echo "benchmark: $PWD holds no go.mod and internal/core: the program to measure is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
# The Go tool keeps its caches and counters under HOME and the XDG
# directories; point them all into the checkout. No module is downloaded:
# the repository has no dependency.
mkdir -p "$build/home/.config/go/telemetry"
# With telemetry in its default "local" mode the go command starts a
# detached child of itself (own session, not waited for) that outlives a
# short build. "off" is the only mode in which it starts none.
echo off >"$build/home/.config/go/telemetry/mode"
env -u XDG_CONFIG_HOME -u XDG_CACHE_HOME -u GOFLAGS \
	HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0 \
	go build -o "$build/benchmark" ./benchmark >&2
exec "$build/benchmark" "$@"
