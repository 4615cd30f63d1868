#!/usr/bin/env bash
# Builds the benchmark offline and runs it. From the root of a checkout:
#
#   benchmark/run.sh                        whole suite -> benchmark/out/results.json
#   benchmark/run.sh --seed 2 --passes 1    second-seed smoke (oracle only)
#   benchmark/run.sh --twice                suite twice, then `compare` the two
#   benchmark/run.sh compare A.json B.json  regression table; exits 1 on `worse`
#   benchmark/run.sh --workload olap_warm --seed 1 --seconds 20 --trace 0
#                                           one run, one JSON line (BENCHMARK.json)
set -euo pipefail
dir="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$dir/target}"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/wdtg-benchmark" --out "$dir/out" "$@"
