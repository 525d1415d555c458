#!/bin/sh
# Timing gate: runs every perfbench workload as 5 alternating base/change
# pairs (the base first in odd pairs, the change first in even ones) and
# fails if any run's answers are not all correct, if the median
# change/base jobs_per_s ratio of a workload is below 0.75 (the 0.25
# bound BENCHMARK.json sets on jobs_per_s), or if its median change/base
# peak_rss_mb ratio is above 1.10 (the 0.1 bound on peak_rss_mb). Prints
# every pair. With only
# 3 pairs of 2-second runs, one slow phase of a shared host was enough to
# pull a median under the bound on a change that did not touch the
# workload's code.
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
pairs=5
min_ratio=0.75
max_rss_ratio=1.10
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

# metric JSON NAME: the value of end-to-end metric NAME in a perfbench
# JSON line.
metric() {
    printf '%s\n' "$1" | sed -n "s/.*\"$2\": {\"value\": \([0-9.eE+-]*\).*/\1/p"
}

# median RATIOS...: the median of its arguments.
median() {
    printf '%s\n' "$@" | sort -n | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'
}

# run TREE WORKLOAD: one untraced run of TREE's perfbench; prints its
# jobs_per_s and peak_rss_mb, or fails unless every answer was correct.
run() {
    last=$("$1/perfbench/target/release/hoas-perfbench" \
        --workload "$2" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    case $last in
        '{"correct": true,'*) ;;
        *) echo "perf-gate: $2 in $1 is not correct: $last" >&2; return 1 ;;
    esac
    echo "$(metric "$last" jobs_per_s) $(metric "$last" peak_rss_mb)"
}

status=0
for w in rewrite-cold lp-cold rewrite-warm; do
    ratios=
    rss_ratios=
    i=1
    while [ "$i" -le "$pairs" ]; do
        # Alternate which side runs first, so drift within a pair (a
        # warming or throttling host) does not always favour one side.
        if [ $((i % 2)) -eq 0 ]; then
            c=$(run "$root" "$w") || exit 1
            b=$(run "$tmp/base" "$w") || exit 1
        else
            b=$(run "$tmp/base" "$w") || exit 1
            c=$(run "$root" "$w") || exit 1
        fi
        set -- $b $c
        r=$(awk -v b="$1" -v c="$3" 'BEGIN { printf "%.3f", c / b }')
        m=$(awk -v b="$2" -v c="$4" 'BEGIN { printf "%.3f", c / b }')
        awk -v w="$w" -v i="$i" -v b="$1" -v c="$3" -v r="$r" \
            -v bm="$2" -v cm="$4" -v m="$m" 'BEGIN {
            printf "%s pair %d: base %.0f, change %.0f jobs_per_s, ratio %s;", w, i, b, c, r
            printf " base %.2f, change %.2f peak_rss_mb, ratio %s\n", bm, cm, m }'
        ratios="$ratios $r"
        rss_ratios="$rss_ratios $m"
        i=$((i + 1))
    done
    med=$(median $ratios)
    if awk -v m="$med" -v t="$min_ratio" 'BEGIN { exit !(m < t) }'; then
        echo "$w: median jobs_per_s ratio $med is below $min_ratio: FAIL"
        status=1
    else
        echo "$w: median jobs_per_s ratio $med: ok"
    fi
    med=$(median $rss_ratios)
    if awk -v m="$med" -v t="$max_rss_ratio" 'BEGIN { exit !(m > t) }'; then
        echo "$w: median peak_rss_mb ratio $med is above $max_rss_ratio: FAIL"
        status=1
    else
        echo "$w: median peak_rss_mb ratio $med: ok"
    fi
done
exit $status
