#!/usr/bin/env bash
# bench.sh — build the provload benchmark from this checkout and run it.
#
# Run from the repository root; every argument goes to provload:
#
#   bash benchmark/bench.sh --workload hot-core --seed 1 --seconds 40 --trace 0
#   bash benchmark/bench.sh -workload all -seed 1 -out results/
#
# Everything the Go toolchain and the benchmark write (build cache,
# binaries, server data directories and logs) stays under .bench_build/ in
# the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/provmind" ]; then
    echo "bench.sh: run from the root of a provmin checkout" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/bin/provload" ./provload)
exec "$build/bin/provload" -root "$root" -work "$build" "$@"
