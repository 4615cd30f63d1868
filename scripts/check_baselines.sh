#!/usr/bin/env bash
# "Baselines bit-identical" as one command.
#
# Regenerates the eight committed BENCH_*.json baselines into a temp dir
# (through each bin's existing BENCH_*_OUT variable), strips every host-clock
# pair -- `"host_<name>": <number>`, the only fields that may differ between
# two runs of a deterministic simulator -- from both sides, and diffs against
# the committed files. Exits non-zero, naming file and line, if any simulated
# field moved or a bin failed.
set -euo pipefail
cd "$(dirname "$0")/.."
unset WDTG_SCALE # the committed baselines are dev scale

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

strip_host() {
    sed -E 's/"host_[a-z_0-9]*": *-?[0-9][0-9.eE+-]*/"host_*": _/g' "$1"
}

status=0
for pair in exec_mode:exec layout_compare:layout join_compare:join \
    branch_compare:branch scale_compare:scale chaos_sweep:chaos \
    planner_compare:planner oltp_bench:oltp; do
    bin=${pair%%:*}
    name=${pair##*:}
    file="BENCH_$name.json"
    var="BENCH_$(echo "$name" | tr '[:lower:]' '[:upper:]')_OUT"
    echo "== $bin -> $file"
    if ! env "$var=$tmp/$file" cargo run --release -q -p wdtg-bench --bin "$bin" \
        >"$tmp/$bin.log" 2>&1; then
        echo "$file: $bin failed:"
        tail -n 20 "$tmp/$bin.log"
        status=1
        continue
    fi
    if ! diff \
        --unchanged-line-format= \
        --old-line-format="$file:%dn: committed   %L" \
        --new-line-format="$file:%dn: regenerated %L" \
        <(strip_host "$file") <(strip_host "$tmp/$file"); then
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "all eight baselines regenerate bit-identically (host_* fields aside)"
fi
exit "$status"
