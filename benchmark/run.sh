#!/usr/bin/env bash
# run.sh — K untraced runs of every workload plus one traced run, written
# to a dated directory, then the report: each end-to-end metric's median
# and quartiles, the traced run's per-layer metrics, and the tracing
# overhead on read_p50_ms.
#
# Usage, from the repository root:
#
#   benchmark/run.sh [K] [SEED] [SECONDS] [DIR]
#
# K defaults to 5, SEED to 1, SECONDS (measured time per run) to 40 and
# DIR to benchmark/results/<UTC date and time>.
set -euo pipefail

k="${1:-5}"
seed="${2:-1}"
seconds="${3:-40}"
out="${4:-benchmark/results/$(date -u +%Y-%m-%dT%H%M%SZ)}"

for i in $(seq "$k"); do
    echo "run.sh: untraced run $i of $k" >&2
    bash benchmark/bench.sh -workload all -seed "$seed" -seconds "$seconds" -out "$out" >/dev/null
done
echo "run.sh: traced run" >&2
bash benchmark/bench.sh -workload all -seed "$seed" -seconds "$seconds" -trace 1 -out "$out" >/dev/null
.bench_build/bin/provload -report "$out" | tee "$out/report.txt"
