#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the Go toolchain writes — build cache, module
# cache, scratch files — stays under .bench_build in the checkout; the
# benchmark itself writes under benchmark/out.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: no program to measure here (run from the root of a checkout)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With no mode file the go command forks a detached telemetry child once
# a day per config directory, and that child can outlive this script.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
