#!/bin/sh
# Timing gate: runs every perfbench workload as alternating base/change
# pairs and fails if any run's answers are not all correct, or if the
# median change/base jobs_per_s ratio of a workload is below 0.75 (the
# 0.25 bound BENCHMARK.json sets on jobs_per_s). Prints every pair.
#
# Usage, from anywhere inside the repository (offline, needs the base
# revision in the local clone):
#
#   ci/perf-gate.sh <base-rev>
#
# The base revision is checked out in a temporary `git worktree`; the
# change is the working tree the script runs in.
set -eu

base_rev=${1:?usage: ci/perf-gate.sh <base-rev>}
pairs=3
min_ratio=0.75
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM
git -C "$root" worktree add --detach --quiet "$tmp/base" "$base_rev"

for dir in "$tmp/base" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml"
done

# run TREE WORKLOAD: one untraced run of TREE's perfbench; prints its
# jobs_per_s, or fails unless every answer was correct.
run() {
    last=$("$1/perfbench/target/release/hoas-perfbench" \
        --workload "$2" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    case $last in
        '{"correct": true,'*) ;;
        *) echo "perf-gate: $2 in $1 is not correct: $last" >&2; return 1 ;;
    esac
    printf '%s\n' "$last" | sed -n 's/.*"jobs_per_s": {"value": \([0-9.eE+-]*\).*/\1/p'
}

status=0
for w in rewrite-cold lp-cold rewrite-warm; do
    ratios=
    i=1
    while [ "$i" -le "$pairs" ]; do
        b=$(run "$tmp/base" "$w") || exit 1
        c=$(run "$root" "$w") || exit 1
        r=$(awk -v b="$b" -v c="$c" 'BEGIN { printf "%.3f", c / b }')
        awk -v w="$w" -v i="$i" -v b="$b" -v c="$c" -v r="$r" 'BEGIN {
            printf "%s pair %d: base %.0f, change %.0f jobs_per_s, ratio %s\n", w, i, b, c, r }'
        ratios="$ratios $r"
        i=$((i + 1))
    done
    med=$(printf '%s\n' $ratios | sort -n | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }')
    if awk -v m="$med" -v t="$min_ratio" 'BEGIN { exit !(m < t) }'; then
        echo "$w: median ratio $med is below $min_ratio: FAIL"
        status=1
    else
        echo "$w: median ratio $med: ok"
    fi
done
exit $status
