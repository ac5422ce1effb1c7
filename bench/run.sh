#!/usr/bin/env bash
# One-command entry point of the load benchmark. Builds modelird and the
# benchmark from source into .bench_build/ (Go's build cache, temp and
# config dirs are pointed there too, so nothing is written outside the
# checkout) and runs the benchmark with the caller's arguments:
#
#   bash bench/run.sh --workload cold_mix --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                       # all four workloads, untraced
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Run it from the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
# With a fresh config dir the go command forks a telemetry child that
# outlives it; the mode file (there is no environment switch) stops that,
# so no process is left behind when this script returns.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/modelird" ./cmd/modelird
go build -C bench -o "$build/modelir-bench" .
exec "$build/modelir-bench" -modelird "$build/modelird" -workdir "$build" "$@"
