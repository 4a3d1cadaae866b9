#!/usr/bin/env bash
# run.sh — BENCHMARK.json's command. Builds the benchmark (package main
# in this directory, part of the repository's module) with every build
# output, cache and temporary file under .bench_build/ in the checkout,
# then runs it from the checkout root; the program builds sketchd
# itself. Arguments are passed through (see main.go). In a directory
# without the repository's sources the build fails and the exit code is
# non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# No network, no toolchain switch, nothing written outside the checkout
# (XDG_CONFIG_HOME is where the go command keeps its telemetry counters).
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
# A go command that finds no telemetry directory starts a sidecar child
# that outlives it; the documented switch is the mode file (what
# `go telemetry off` writes), so no run leaves a process behind.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
