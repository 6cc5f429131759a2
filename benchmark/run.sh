#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the ledger from source into
# .bench_build/ of the checkout (binary and Go build cache, so nothing is
# written outside the checkout) and runs it with the caller's arguments.
# Outside a checkout of the module the build fails and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" go build -o "$build/ledger" ./benchmark
exec "$build/ledger" "$@"
