#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything it writes (Go build cache, binary, WAL
# directories, trace files) stays under .bench_build/ at the checkout root.
set -eu
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/gqosm-bench .
exec .bench_build/gqosm-bench "$@"
