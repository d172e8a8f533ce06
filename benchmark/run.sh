#!/bin/sh
# Builds the benchmark and runs every workload, untraced then traced, one
# child process per run; prints every metric and writes
# benchmark/out/results.json and benchmark/out/trace.<workload>.json.
#
#   benchmark/run.sh                         all five workloads, seed 1
#   benchmark/run.sh --seed 7 --seconds 12   another seed, another run length
#   benchmark/run.sh --workload serve_mixed  one workload
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run "$@"
