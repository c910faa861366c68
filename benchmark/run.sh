#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary go to .bench_build/, results and traces to
# benchmark/out/. In a directory without the repository's sources the build
# fails and nothing is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/brickbench" .)
cd "$root"
exec "$build/brickbench" "$@"
