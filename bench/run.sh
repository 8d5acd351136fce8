#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# arguments given. Everything the build and the run write — Go's build
# cache, the binary, data directories, span dumps — stays under
# .bench_build/ in the checkout. Run from the root of the checkout.
set -euo pipefail
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache"
export GOTMPDIR="$PWD/.bench_build/tmp"
export GOTOOLCHAIN=local
go build -o .bench_build/gdpr-bench ./bench
exec .bench_build/gdpr-bench "$@"
