#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; the
# entry point BENCHMARK.json names. Everything the go command writes —
# build cache, module cache, its per-user files — stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/hsmperf" .
exec "$build/hsmperf" "$@"
