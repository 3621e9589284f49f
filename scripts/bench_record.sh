#!/usr/bin/env bash
# Record one point of the benchmark trajectory:
#
#   scripts/bench_record.sh <N>      # writes results/BENCH_pr<N>.json
#
# = every workload of BENCHMARK.json untraced on seeds 1-10 (medians of
# `time_s` and `setup_s`, the largest `failed`) plus the traced seed-1 suite,
# each exactly as `benchmark/run.sh` prints it, at the benchmark's own run
# length (`run_seconds`). About 15 minutes; run it on an otherwise idle
# machine. The file with the highest <N> is what tier 1 of run_tests.sh pins
# the seed-pure rows to, so checking the next one in *is* the re-pin.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
n="${1:?usage: scripts/bench_record.sh <PR number>}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="$(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)"

# The value of top-level or per-metric field $1 in result line $2.
field() { sed -E "s/.*\"$1\": (\{\"value\": )?([^,}]+).*/\2/" <<<"$2"; }
median() { sort -g | awk '{ v[NR] = $1 } END { printf "%.6g\n", (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2 }'; }

out="results/BENCH_pr$n.json"
{
    echo "{"
    echo "  \"pr\": $n,"
    echo "  \"source\": \"scripts/bench_record.sh\","
    echo "  \"protocol\": \"untraced: seeds 1-10, --seconds $seconds, medians; traced: seed 1, --seconds $seconds\","
    echo "  \"workloads\": {"
    sep=""
    for w in $workloads; do
        times="" setups="" failed=0
        for seed in 1 2 3 4 5 6 7 8 9 10; do
            line="$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
            times+="$(field time_s "$line")"$'\n'
            setups+="$(field setup_s "$line")"$'\n'
            f="$(field failed "$line")"
            [ "$f" -gt "$failed" ] && failed="$f"
            echo "$w seed $seed: $line" >&2
        done
        printf '%s    "%s": {"time_s": %s, "setup_s": %s, "failed": %s}' "$sep" "$w" \
            "$(printf %s "$times" | median)" "$(printf %s "$setups" | median)" "$failed"
        sep=$',\n'
    done
    printf '\n  },\n  "traced": '
    bash benchmark/run.sh --workload stream_small --seed 1 --seconds "$seconds" --trace 1 | tail -n 1
    echo "}"
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out" >&2
