#!/usr/bin/env bash
# Record the current bench medians as a new snapshot in BENCH_pipeline.json.
#
# Runs the perf-tracked criterion benches with CRITERION_JSON set (the
# in-tree criterion harness appends one {"id","median_ns","samples"} line
# per benchmark), then merges the medians into the snapshot trajectory
# with toolchain/host metadata via `fixy bench-record`.
#
#   scripts/bench_record.sh                 # record all tracked benches
#   BENCHES="scoring" scripts/bench_record.sh   # record a subset
#   NOTE="8-core ci runner" scripts/bench_record.sh
set -euo pipefail
cd "$(dirname "$0")/.."

lines=$(mktemp)
trap 'rm -f "$lines"' EXIT

for bench in ${BENCHES:-scene_runtime pipeline scoring assembly association streaming serving}; do
    CRITERION_JSON="$lines" cargo bench -p loa_bench --bench "$bench"
done

cargo run --release -p fixy_cli -- bench-record \
    --json "$lines" --out BENCH_pipeline.json ${NOTE:+--note "$NOTE"}
