#!/bin/bash
# Tier-1 test suite + chaos profile + bench-smoke perf gate.
#
# Tier 1 (always): release build + the full workspace test suite, clippy on
# the trace and fabric crates, the bench-smoke regression gate, and the repo
# benchmark's `--quick` self-check. This is the bar every change must clear.
#
# Chaos profile: re-run the seeded chaos suites across a fixed matrix of
# fabric seeds. Fault schedules are a pure function of the seed, so each
# value is a *distinct, reproducible* chaos schedule, and every chaos
# failure prints the exact `FABRIC_SEED=<s> cargo test --test <suite>`
# replay line. Legs: the stress suite (timing faults), the loss suite
# (whole-run Drop{prob_ppm: 50_000} recovery + blackhole peer-death
# aborts), the wire-hardening suite (frame/decoder proptests +
# corrupt/duplicate/truncate chaos runs), the crash-recovery suite (seeded
# mid-run crash-stop of one host per engine per comm layer, recovered via
# coordinated checkpoint/restart), and clippy over the other fault-bearing
# crates (lci protocol, mini-mpi; the fabric is linted in tier 1).
#
# Bench-smoke: a seconds-scale benchmark (tiny deterministic graph, 2
# simulated hosts) that writes `results/BENCH_smoke.json` and diffs its
# gated metrics against `crates/bench/baselines/BENCH_smoke.json`. After an
# intentional perf change, regenerate the baseline with
# `BENCH_UPDATE_BASELINE=1 cargo run --release -p lci-bench --bin bench_smoke`.
#
# Usage:
#   ./run_tests.sh               # tier 1 + chaos profile
#   ./run_tests.sh --tier1       # tier 1 only (fast gate)
#   ./run_tests.sh bench-smoke   # bench-smoke gate only
set -e
cd "$(dirname "$0")"

bench_smoke() {
    echo "=== bench-smoke: perf regression gate ==="
    cargo run --release -p lci-bench --bin bench_smoke
}

if [[ "${1:-}" == "bench-smoke" ]]; then
    cargo build --release -p lci-bench
    bench_smoke
    exit 0
fi

# A suite under tests/ that crates/integration does not list as a [[test]]
# is never compiled, and `cargo test --test <suite>` names nothing.
for f in tests/*.rs; do
    if ! grep -qF "path = \"../../$f\"" crates/integration/Cargo.toml; then
        echo "UNREGISTERED SUITE: $f has no [[test]] entry in crates/integration/Cargo.toml" >&2
        exit 1
    fi
done

# The fabric has no thread of its own: a wall-clock wire is run by whoever
# polls (DESIGN.md, "Who drives the wire"). A "helper" thread would put the
# scheduler hop back on every message, so none may be spawned outside tests.
for f in crates/fabric/src/*.rs; do
    if awk '/^#\[cfg\(test\)\]/ { exit } /thread::(spawn|Builder)/ { hit = 1 } END { exit !hit }' "$f"; then
        echo "WIRE THREAD: $f spawns a thread outside #[cfg(test)]; the fabric is poll-driven" >&2
        exit 1
    fi
done

echo "=== tier 1: build ==="
cargo build --workspace --release
echo "=== tier 1: test ==="
cargo test --workspace --release -q
echo "=== tier 1: clippy (lci-trace, lci-fabric) ==="
cargo clippy -p lci-trace -p lci-fabric --release -- -D warnings
bench_smoke
# The repo benchmark builds its own offline workspace against crates/* and
# checks every metric name in BENCHMARK.json, so a product change that breaks
# a call benchmark/ pins fails here, not only in the external pipeline.
echo "=== tier 1: benchmark --quick (offline build + metric names) ==="
bash benchmark/run.sh --quick

if [[ "${1:-}" == "--tier1" ]]; then
    echo "TIER 1 OK"
    exit 0
fi

# One chaos leg: run a suite under a fixed seed; on failure print the exact
# replay line and stop. Fault schedules are a pure function of the seed.
chaos_run() {
    local seed="$1" suite="$2"
    echo "=== chaos: $suite, FABRIC_SEED=$seed ==="
    if ! FABRIC_SEED="$seed" cargo test --release -q --test "$suite"; then
        echo "CHAOS FAILURE: replay with FABRIC_SEED=$seed cargo test --test $suite" >&2
        exit 1
    fi
}

# Seed matrix: arbitrary but fixed, so CI failures name the seed to replay.
for seed in 1 7 42 1337; do
    chaos_run "$seed" stress
done
# Loss leg: 5% whole-run packet loss (Drop{prob_ppm: 50_000}) must recover
# bit-identically, and a blackholed peer must abort bounded, on every comm
# layer — each seed is a distinct loss schedule.
for seed in 1 7 42 1337; do
    chaos_run "$seed" loss_chaos
done
chaos_run 1337 wire_hardening
# Crash leg: a seeded mid-run crash-stop of one host, per engine per comm
# layer, must recover bit-identically from the newest common checkpoint —
# and still abort bounded when recovery is disabled. The packet-count
# trigger rides the seeded wire schedule, so each seed is a distinct,
# replayable crash point.
for seed in 1 7 42 1337; do
    chaos_run "$seed" crash_recovery
done
echo "=== chaos: clippy (fault-bearing crates, -D warnings) ==="
cargo clippy --release -p lci -p mini-mpi -- -D warnings
echo "ALL TESTS OK"
