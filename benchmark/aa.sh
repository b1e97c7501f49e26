#!/usr/bin/env bash
# A/A gate: two full sets of runs of the same commit, compared under the
# benchmark's own bounds. Exits non-zero when any row is "regressed".
#
#   benchmark/aa.sh [runs-per-set] [first-seed]
#
# Run it from the repo root. Each set is RUNS runs (seeds SEED..SEED+RUNS-1)
# of all five workloads, about 45 s per run on 2 cores. The two reports
# stay in benchmark/out/ as aa-a.json and aa-b.json.
set -euo pipefail
runs="${1:-5}"
seed="${2:-1}"
out=benchmark/out
mkdir -p "$out"
go build -o "$out/benchmark.bin" ./benchmark
"$out/benchmark.bin" -runs "$runs" -seed "$seed" -json "$out/aa-a.json" >/dev/null
"$out/benchmark.bin" -runs "$runs" -seed "$seed" -json "$out/aa-b.json" >/dev/null
"$out/benchmark.bin" -compare "$out/aa-a.json" "$out/aa-b.json"
