#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (a no-op after the first run)
# and runs it with the caller's arguments. Everything the go tool writes —
# build cache, work files, telemetry — is kept inside .bench_build/ too.
#
#   bash benchmark/run.sh --workload explore-compact --seed 1 --seconds 30 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

(cd "$here" && env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= go build -o "$build/onex-benchmark" .)

cd "$root"
exec "$build/onex-benchmark" -tmp .bench_build "$@"
