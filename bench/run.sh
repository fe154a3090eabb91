#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given, from the root of the checkout.  The Go
# build cache, the binaries and every temporary file stay inside the
# checkout (.bench_build/, ignored by git), so the first run in a fresh
# checkout compiles the standard library too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
