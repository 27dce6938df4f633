#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: build the benchmark from this
# checkout's sources, keeping every build product inside the checkout
# (.bench_build/), then run it with the arguments given. `go run
# ./benchmark` from the repository root does the same with the user's own
# Go caches.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
