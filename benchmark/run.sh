#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Everything
# the build writes (binary, Go build cache) stays under <checkout>/.bench_build,
# so a run touches nothing outside its checkout.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$dir")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$dir" -o "$build/acic-benchmark" .
exec "$build/acic-benchmark" "$@"
