#!/usr/bin/env bash
# The repo's one performance gate: the benchmark (BENCHMARK.json, benchmark/)
# on a base commit and on this checkout, side by side.
#
#   ci/bench_ab.sh <base-ref> [pairs] [workload,...]
#   ci/bench_ab.sh --aa [pairs] [workload,...]
#
# Checks the base out as a git worktree under a temporary directory, builds
# each side's benchmark/ offline into its own CARGO_TARGET_DIR, then for every
# workload the manifest lists (or only the comma-separated ones given, each
# checked against the manifest) runs `pairs` (default 5) pairs of
# `--workload W --seed S --seconds <run_seconds> --trace 0` through each side's
# own benchmark/run.sh, alternating which side goes first. Prints, per
# workload x end-to-end metric, `parent median [q1, q3] -> change median
# [q1, q3]`, the ratio of the medians and how many pairs the change won.
#
# Exits non-zero only when a run is not `correct`, when the change fails more
# operations than the parent, or when the change's median is worse than the
# parent's by more than the metric's bound *and* the parent's own quartile
# spread is narrower than that bound. A cell the parent's spread can explain
# reads `unresolved`. A cell reads `GAIN` instead when the change's median is
# better, the change won at least 9 in 10 of the pairs, and the medians differ
# by more than the parent's interquartile range: the rule for claiming a
# gain (at the default 5 pairs it takes all five).
#
# `--aa` compares this checkout with itself: it is built once and run as
# both sides, with the same pairing, order and verdicts. Every `GAIN` or
# `REGRESSION` it prints is noise, so it tells how often the host alone
# produces each verdict for a cell at that pair count.
#
# Nothing else may run meanwhile: the benchmark pins its lanes to the CPUs it
# finds.
#
# `sync` runs before every run: a replicated_mixed run journals about half a
# gigabyte and deletes it on exit, and the kernel writes that back during
# whatever runs next. Its set-up is several hundred fsynced control records,
# so without the sync `setup_s` bills the previous run's dirty pages to this
# one (0.15 to 1.12 s was read on identical code).
#
# `setup_s` can sit at one of two levels for a whole process, whatever the
# code. One build, `city_requests`, seed 2, six processes of nine set-ups
# each (`--seconds 3`), read after each process's first set-up: three at
# 10.1-12.2 ms throughout, one at 6.8-8.2 ms throughout, one switched from
# 11.2 to 7.0-8.3 ms partway, one read 10.7-11.4 ms and then 15.3 ms. So at
# 4-5 pairs, read a `setup_s` REGRESSION beside an `--aa` run of the same
# pairs before believing it. The verdict rules above are unchanged.
set -euo pipefail

usage() {
    echo "usage: ci/bench_ab.sh <base-ref> [pairs] [workload,...]" >&2
    echo "       ci/bench_ab.sh --aa [pairs] [workload,...]" >&2
    exit 2
}
[ "$#" -ge 1 ] && [ "$#" -le 3 ] || usage
aa=0
[ "$1" = "--aa" ] && aa=1
pairs="${2:-5}"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
change="$(git rev-parse --show-toplevel)"

# manifest_workloads <file>: the workload names a manifest lists, one a line.
manifest_workloads() { awk -F'"' '/"workloads"/ { on = 1; next } /\]/ { on = 0 } on { print $4 }' "$1"; }

# The subset to run, if one is given: every name must be a manifest workload,
# named once. Checked before anything is built.
subset=""
if [ "$#" -eq 3 ]; then
    known="$(manifest_workloads "$change/BENCHMARK.json")"
    IFS=, read -ra names <<< "$3"
    for name in "${names[@]}"; do
        if ! grep -qxF -- "$name" <<< "$known"; then
            echo "bench_ab: '$name' is not a workload of BENCHMARK.json:" $known >&2
            exit 2
        fi
        if [[ " $subset " == *" $name "* ]]; then
            echo "bench_ab: workload '$name' is named twice" >&2
            exit 2
        fi
        subset="$subset $name"
    done
    [ -n "$subset" ] || usage
fi
tmp="$(mktemp -d)"
if [ "$aa" -eq 1 ]; then
    parent="$change"
    trap 'rm -rf "$tmp"' EXIT
else
    parent="$tmp/parent"
    trap 'git -C "$change" worktree remove --force "$parent" 2>/dev/null; rm -rf "$tmp"' EXIT
    git -C "$change" worktree add --quiet --detach "$parent" "$1"
fi

# run <parent|change> <benchmark/run.sh arguments>: that side's run.sh, which
# builds (first call only) and runs the executable from its own checkout.
# Under --aa both sides are this checkout and share one build.
run() {
    local side=$1
    shift
    local target="$tmp/target-$side"
    [ "$aa" -eq 1 ] && target="$tmp/target"
    CARGO_TARGET_DIR="$target" "${!side}/benchmark/run.sh" "$@"
}

run parent manifest > /dev/null
run change manifest > "$tmp/manifest"
seconds="$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' "$tmp/manifest")"
workloads="${subset:-$(manifest_workloads "$tmp/manifest")}"

for workload in $workloads; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "bench_ab: $workload seed $seed $side" >&2
            sync
            line="$(run "$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)" || true
            echo "$workload $side $seed $line" >> "$tmp/results"
        done
    done
done

# First file: the manifest's end_to_end rows. Second: one result line per run,
# `"name": {"value": v, ...}` per metric beside `correct` and `failed`.
awk -v pairs="$pairs" '
function after(line, key,    at) {
    at = index(line, key)
    return at ? substr(line, at + length(key)) + 0 : 0
}
# Sort s[side, 1..pairs] in place; quantile() then reads it, linear between ranks.
function sort_side(side,    i, j, t) {
    for (i = 2; i <= pairs; i++)
        for (j = i; j > 1 && s[side, j - 1] > s[side, j]; j--) {
            t = s[side, j]; s[side, j] = s[side, j - 1]; s[side, j - 1] = t
        }
}
function quantile(side, q,    pos, lo) {
    pos = 1 + q * (pairs - 1); lo = int(pos)
    return lo == pairs ? s[side, lo] : s[side, lo] + (pos - lo) * (s[side, lo + 1] - s[side, lo])
}
NR == FNR {
    if (/"end_to_end"/) on = 1; else if (/\]/) on = 0
    else if (on) {
        split($0, f, "\""); metric[++metrics] = f[4]; higher[f[4]] = (f[12] == "higher")
        bound[f[4]] = after($0, "\"bound\": ")
    }
    next
}
{
    w = $1; side = $2; seed = $3
    if (!(w in seen)) { seen[w] = 1; order[++n] = w }
    if (!index($0, "\"correct\": true")) { printf "%s seed %s %s: not correct\n", w, seed, side; bad = 1 }
    failed[w, side] += after($0, "\"failed\": ")
    for (m = 1; m <= metrics; m++) value[w, metric[m], side, seed] = after($0, "\"" metric[m] "\": {\"value\": ")
}
END {
    for (i = 1; i <= n; i++) {
        w = order[i]
        if (failed[w, "change"] > failed[w, "parent"]) {
            printf "%s: change failed %d operations, parent %d\n", w, failed[w, "change"], failed[w, "parent"]; bad = 1
        }
        for (m = 1; m <= metrics; m++) {
            name = metric[m]; wins = 0
            for (k = 1; k <= pairs; k++) {
                p = s["parent", k] = value[w, name, "parent", k]; c = s["change", k] = value[w, name, "change", k]
                if (higher[name] ? c > p : c < p) wins++
            }
            sort_side("parent"); sort_side("change")
            pm = quantile("parent", 0.5); p1 = quantile("parent", 0.25); p3 = quantile("parent", 0.75)
            cm = quantile("change", 0.5); c1 = quantile("change", 0.25); c3 = quantile("change", 0.75)
            worse = pm ? (higher[name] ? pm - cm : cm - pm) / pm : 0
            spread = pm ? (p3 - p1) / pm : 0
            moved = cm > pm ? cm - pm : pm - cm
            if (worse > bound[name]) verdict = spread < bound[name] ? "REGRESSION" : "unresolved"
            else verdict = (moved > 0 && moved <= p3 - p1) || spread >= bound[name] ? "unresolved" : "within bound"
            better = higher[name] ? cm > pm : cm < pm
            if (better && wins * 10 >= 9 * pairs && moved > p3 - p1) verdict = "GAIN"
            if (verdict == "REGRESSION") bad = 1
            printf "%-17s %-24s parent %.6g [%.6g, %.6g] -> change %.6g [%.6g, %.6g]  x%.3f  change ahead %d/%d  %s\n", \
                w, name, pm, p1, p3, cm, c1, c3, pm ? cm / pm : 1, wins, pairs, verdict
        }
    }
    exit bad
}' "$tmp/manifest" "$tmp/results"
