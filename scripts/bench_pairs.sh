#!/usr/bin/env bash
# The pair protocol: is the working tree faster or slower than a base commit?
#
#   scripts/bench_pairs.sh [-n N] [-s SECONDS] <base-rev> [workload...]
#
# <base-rev> is exported (`git archive`, so no worktree is registered) into
# .bench_build/base, and the benchmark's `lcibench` is built --offline for both
# sides: the base ("parent") into .bench_build/target-base, the working tree
# as it stands ("change") into .bench_build/target-head. Every workload named
# (default: all of BENCHMARK.json) then runs in ten alternating pairs, seeds
# 1-10, one fresh process each, the order flipped every seed (odd seeds: the
# parent first); the first workload named also runs held-out seeds 11-14 the
# same way. SECONDS defaults to BENCHMARK.json's `run_seconds`.
#
# Writes results/PAIRS_pr<N>.json (N defaults to one more than the newest
# results/BENCH_pr<N>.json) and prints the markdown tables EXPERIMENTS.md
# pastes. Per workload and per end-to-end metric (`time_s`, `setup_s`): each
# side's median and quartiles (linear interpolation between order
# statistics), the ratio of medians (change / parent), the pairs in which the
# change was lower, and the gap between the medians over the parent's
# interquartile range (positive: the change is lower); and every pair as run.
# About 2 x 14 x SECONDS per workload: ≈ 30 min for all six at 13 s. Run it on
# an otherwise idle machine.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

n="" seconds=""
while getopts "n:s:" opt; do
    case "$opt" in
        n) n="$OPTARG" ;;
        s) seconds="$OPTARG" ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
base="${1:?usage: scripts/bench_pairs.sh [-n N] [-s SECONDS] <base-rev> [workload...]}"
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    read -r -d '' -a workloads < <(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json) || true
fi
[ -n "$seconds" ] || seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
if [ -z "$n" ]; then
    newest="$(ls results/BENCH_pr*.json | sed 's/.*BENCH_pr\([0-9]*\)\.json/\1/' | sort -n | tail -n 1)"
    n=$((newest + 1))
fi
sha="$(git rev-parse --short "$base^{commit}")"

echo "exporting $base ($sha) into .bench_build/base" >&2
rm -rf .bench_build/base
mkdir -p .bench_build/base
git archive "$sha" | tar -x -C .bench_build/base
for side in base head; do
    root=.; [ "$side" = base ] && root=.bench_build/base
    echo "building the $side side" >&2
    CARGO_TARGET_DIR="$PWD/.bench_build/target-$side" cargo build --offline --release --quiet \
        --manifest-path "$root/benchmark/Cargo.toml" --bin lcibench
done

# The value of top-level or per-metric field $1 in result line $2.
field() { sed -E "s/.*\"$1\": (\{\"value\": )?([^,}]+).*/\2/" <<<"$2"; }
# "median q1 q3" of the numbers on stdin.
quartiles() {
    sort -g | awk '
        function q(p,   h, i) { h = 1 + (NR - 1) * p; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        { v[NR] = $1 }
        END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}
# One run of workload $2, seed $3 on side $1: "time_s setup_s failed".
run() {
    local line
    line="$(".bench_build/target-$1/release/lcibench" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0 | tail -n 1)"
    echo "$(field time_s "$line") $(field setup_s "$line") $(field failed "$line")"
}
# Pairs of workload $1 over seeds $2..$3, one line each:
# "seed first parent_time change_time parent_setup change_setup failed".
pairs() {
    local w="$1" seed first b h
    for seed in $(seq "$2" "$3"); do
        if [ $((seed % 2)) -eq 1 ]; then
            first=parent; b="$(run base "$w" "$seed")"; h="$(run head "$w" "$seed")"
        else
            first=change; h="$(run head "$w" "$seed")"; b="$(run base "$w" "$seed")"
        fi
        read -r bt bs bf <<<"$b"
        read -r ht hs hf <<<"$h"
        echo "$w seed $seed ($first first): parent $bt s, change $ht s" >&2
        echo "$seed $first $bt $ht $bs $hs $((bf > hf ? bf : hf))"
    done
}
# Summary of metric columns $2 (parent) and $3 (change) of pair lines $1:
# "parent_median q1 q3 change_median q1 q3 ratio wins gap_iqr".
summary() {
    local pm pq1 pq3 cm cq1 cq3
    read -r pm pq1 pq3 < <(awk -v c="$2" '{ print $c }' <<<"$1" | quartiles)
    read -r cm cq1 cq3 < <(awk -v c="$3" '{ print $c }' <<<"$1" | quartiles)
    awk -v c1="$2" -v c2="$3" -v pm="$pm" -v pq1="$pq1" -v pq3="$pq3" \
        -v cm="$cm" -v cq1="$cq1" -v cq3="$cq3" '
        { wins += ($c2 < $c1) }
        END {
            iqr = pq3 - pq1
            printf "%s %s %s %s %s %s %.4f %d %s\n", pm, pq1, pq3, cm, cq1, cq3, cm / pm, wins,
                (iqr > 0 ? sprintf("%.2f", (pm - cm) / iqr) : "null")
        }' <<<"$1"
}
# Metric $1's JSON object from summary line $2 over $3 pairs.
metric_json() {
    read -r pm pq1 pq3 cm cq1 cq3 ratio wins gap <<<"$2"
    printf '"%s": {"parent": {"median": %s, "q1": %s, "q3": %s}, "change": {"median": %s, "q1": %s, "q3": %s}, "ratio": %s, "wins": %s, "pairs": %s, "gap_iqr": %s}' \
        "$1" "$pm" "$pq1" "$pq3" "$cm" "$cq1" "$cq3" "$ratio" "$wins" "$3" "$gap"
}
# Pair lines $1 as a JSON array.
pairs_json() {
    awk 'BEGIN { printf "[" } { printf "%s{\"seed\": %s, \"first\": \"%s\", \"time_s\": [%s, %s], \"setup_s\": [%s, %s], \"failed\": %s}", (NR > 1 ? ", " : ""), $1, $2, $3, $4, $5, $6, $7 } END { printf "]" }' <<<"$1"
}
# One markdown row: workload $1, summary line $2 over $3 pairs.
row() {
    read -r pm pq1 pq3 cm cq1 cq3 ratio wins gap <<<"$2"
    echo "| \`$1\` | $pm [$pq1, $pq3] | $cm [$cq1, $cq3] | $ratio | $wins/$3 | $gap |"
}

out="results/PAIRS_pr$n.json"
time_rows="" setup_rows="" held_rows=""
{
    echo "{"
    echo "  \"pr\": $n,"
    echo "  \"source\": \"scripts/bench_pairs.sh\","
    echo "  \"base\": \"$base ($sha)\","
    echo "  \"protocol\": \"alternating parent/change pairs, seeds 1-10, --seconds $seconds, order flipped every seed (odd: parent first); held-out seeds 11-14 on ${workloads[0]}; ratio = change / parent medians; gap_iqr = (parent - change median) / parent IQR\","
    echo "  \"workloads\": {"
    sep=""
    for w in "${workloads[@]}"; do
        p="$(pairs "$w" 1 10)"
        t="$(summary "$p" 3 4)"
        s="$(summary "$p" 5 6)"
        failed="$(awk '$7 > m { m = $7 } END { print m + 0 }' <<<"$p")"
        printf '%s    "%s": {%s, %s, "failed": %s, "runs": %s' "$sep" "$w" \
            "$(metric_json time_s "$t" 10)" "$(metric_json setup_s "$s" 10)" "$failed" "$(pairs_json "$p")"
        time_rows+="$(row "$w" "$t" 10)"$'\n'
        setup_rows+="$(row "$w" "$s" 10)"$'\n'
        if [ "$w" = "${workloads[0]}" ]; then
            h="$(pairs "$w" 11 14)"
            ht="$(summary "$h" 3 4)"
            printf ', "held_out": {%s, "runs": %s}' "$(metric_json time_s "$ht" 4)" "$(pairs_json "$h")"
            held_rows="$(row "$w" "$ht" 4)"
        fi
        printf '}'
        sep=$',\n'
    done
    printf '\n  }\n}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out" >&2

header='| workload | parent | change | ratio | change lower in | gap ÷ parent IQR |
|---|---|---|---|---|---|'
echo "\`time_s\`, ten alternating pairs (seeds 1-10, $seconds s, order flipped every seed); median [quartiles], parent = $base ($sha):"
echo
echo "$header"
printf '%s' "$time_rows"
echo
echo "Held-out seeds 11-14:"
echo
echo "$header"
echo "$held_rows"
echo
echo "\`setup_s\`, same pairs:"
echo
echo "$header"
printf '%s' "$setup_rows"
