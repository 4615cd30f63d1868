#!/usr/bin/env bash
# "Baselines bit-identical" as one command.
#
# Runs `bench all` once from a temp dir, which regenerates the eight committed
# BENCH_*.json there and checks every benchmark's claims; strips every
# host-clock pair -- `"host_<name>": <number>`, the only fields that may differ
# between two runs of a deterministic simulator -- from both sides, and diffs
# against the committed files. Then runs the `sim_goldens` test, which pins
# the two write/aggregate paths no BENCH_*.json runs: grouped aggregates and
# autocommit mutations. Exits non-zero, naming file and line, if any
# simulated field moved, a committed baseline is missing, a claim failed or a
# golden moved.
set -euo pipefail
cd "$(dirname "$0")/.."
unset WDTG_SCALE # the committed baselines are dev scale

names="exec layout join branch scale chaos planner oltp"
status=0
for name in $names; do
    if [ ! -f "BENCH_$name.json" ]; then
        echo "BENCH_$name.json: no committed baseline; regenerate it with" \
            "\`cargo run --release -p wdtg-bench --bin bench -- $name\` and commit it"
        status=1
    fi
done
[ "$status" -eq 0 ] || exit 1

root=$PWD
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! (cd "$tmp" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
    -p wdtg-bench --bin bench -- all); then
    echo "bench all failed (a claim above did not hold, or a benchmark panicked)"
    status=1
fi

strip_host() {
    sed -E 's/"host_[a-z_0-9]*": *-?[0-9][0-9.eE+-]*/"host_*": _/g' "$1"
}

for name in $names; do
    file="BENCH_$name.json"
    if [ ! -f "$tmp/$file" ]; then
        echo "$file: not regenerated"
        status=1
    elif ! diff \
        --unchanged-line-format= \
        --old-line-format="$file:%dn: committed   %L" \
        --new-line-format="$file:%dn: regenerated %L" \
        <(strip_host "$file") <(strip_host "$tmp/$file"); then
        status=1
    fi
done

if ! cargo test --release -q --test sim_goldens; then
    echo "sim_goldens failed (a pinned grid, grouped or autocommit counter moved)"
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "all eight baselines regenerate bit-identically (host_* fields aside)" \
        "and every sim_goldens table holds"
fi
exit "$status"
