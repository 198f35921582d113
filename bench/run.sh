#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout root, so BENCHMARK.json and bench/out/ resolve the same way for
# the driver, for `-check`, and by hand. The Go build cache lives under
# .bench_build/ so nothing is read or written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bxbench" .) >&2
cd "$root"
exec "$build/bxbench" "$@"
