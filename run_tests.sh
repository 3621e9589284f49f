#!/bin/bash
# Tier-1 test suite + chaos profile.
#
# Tier 1 (always): release build + the full workspace test suite, clippy on
# the trace, fabric and engine crates, the repo benchmark's `--quick`
# self-check, and the pin leg — all `--offline`: the workspace fetches nothing
# (the registry names are patched onto in-tree stand-ins, see the root
# Cargo.toml). This is the bar every change must clear.
#
# Pin leg: one traced run of the repo benchmark; the ten rows that are pure
# functions of the seed (wire bytes, packets, virtual-clock time, retransmits,
# rejected enqueues, engine message counts, membook peak) must equal the
# highest-numbered `results/BENCH_pr<N>.json` exactly. An intended change is
# re-pinned by checking in the next file (`scripts/bench_record.sh <N>`).
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
# crates (lci protocol, mini-mpi; the fabric and the engines are linted in
# tier 1).
#
# Usage:
#   ./run_tests.sh               # tier 1 + chaos profile
#   ./run_tests.sh --tier1       # tier 1 only (fast gate)
set -e
cd "$(dirname "$0")"

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

# The fabric has one `unsafe`: the feature-detected call from `Crc32::update`
# (frame.rs) into the carry-less-multiply CRC, which itself is safe code on
# register values (DESIGN.md, "Eager wire path"). A second block, a pointer
# load or a transmute would be unchecked memory access where today there is
# none, so outside tests and comments none may appear. The LCI runtime has the
# request cookies of the rendezvous protocol in device.rs (13 lines since
# PR 23, which deleted the boxed completion cookie of every eager send) and
# the slot array of faa_queue.rs (4), mini-mpi the same cookie idiom in p2p.rs
# (7); the ceilings are today's counts, so the unchecked core can shrink
# (ROADMAP item 7(a)) but not grow unnoticed.
for f in crates/fabric/src/*.rs crates/core/src/*.rs crates/mini-mpi/src/*.rs; do
    case "$f" in
        crates/fabric/src/frame.rs) allowed=1 ;;
        crates/core/src/device.rs) allowed=13 ;;
        crates/core/src/faa_queue.rs) allowed=4 ;;
        crates/mini-mpi/src/p2p.rs) allowed=7 ;;
        *) allowed=0 ;;
    esac
    if ! awk -v allowed="$allowed" '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
            /_mm_loadu|_mm_load_|transmute/ { bad = 1 } /unsafe/ { n++ }
            END { exit bad || n > allowed }' "$f"; then
        echo "UNSAFE CEILING: $f has more than $allowed unsafe line(s), a pointer load or a transmute outside #[cfg(test)]" >&2
        exit 1
    fi
done

# Every read-modify-write on vertex state goes through `LabelVec`, the one
# place that knows whether more than one thread writes it (DESIGN.md, "Who
# writes vertex state"). An atomic RMW spelled out in an engine would put a
# locked instruction back on the per-edge path of every single-threaded host.
for f in crates/abelian/src/engine.rs crates/gemini/src/engine.rs; do
    if awk '/^#\[cfg\(test\)\]/ { exit } /compare_exchange|fetch_[a-z]|\]\.swap\(/ { hit = 1 } END { exit !hit }' "$f"; then
        echo "ENGINE RMW: $f has an atomic read-modify-write outside #[cfg(test)]; use LabelVec" >&2
        exit 1
    fi
done

# Nothing is fetched: every package of the resolved graph is a path in this
# checkout. A dependency that needs the registry would make tier 1 something
# only a networked machine can run.
if ! meta="$(cargo metadata --offline --format-version 1)"; then
    echo "OFFLINE RESOLVE: the workspace does not resolve without a registry" >&2
    exit 1
fi
if fetched="$(grep -o '"id":"[^"]*"' <<<"$meta" | grep -v '"id":"path+file://')"; then
    echo "REGISTRY DEPENDENCY: not a path in this checkout; patch it onto an in-tree stand-in:" >&2
    echo "$fetched" | sort -u >&2
    exit 1
fi

echo "=== tier 1: build ==="
cargo build --offline --workspace --release
echo "=== tier 1: test ==="
# Bounded: the one known wedge (ROADMAP item 1(b), a survivor spinning after
# its peer's abort) hangs instead of failing, and CI must say so.
timeout 1800 cargo test --offline --workspace --release -q
echo "=== tier 1: clippy (lci-trace, lci-fabric, abelian, gemini) ==="
cargo clippy --offline -p lci-trace -p lci-fabric -p abelian -p gemini --release -- -D warnings
# The repo benchmark builds its own offline workspace against crates/* and
# checks every metric name in BENCHMARK.json, so a product change that breaks
# a call benchmark/ pins fails here, not only in the external pipeline.
echo "=== tier 1: benchmark --quick (offline build + metric names) ==="
bash benchmark/run.sh --quick
pin="$(ls results/BENCH_pr*.json | sort -V | tail -n 1)"
echo "=== tier 1: seed-pure benchmark rows == $pin ==="
(
    set -o pipefail
    bash benchmark/run.sh --workload stream_small --seed 1 --seconds 1 --trace 1 |
        cargo run --offline --release -q -p lci-bench --bin bench_pins -- "$pin"
)

if [[ "${1:-}" == "--tier1" ]]; then
    echo "TIER 1 OK"
    exit 0
fi

# One chaos leg: run a suite under a fixed seed; on failure print the exact
# replay line and stop. Fault schedules are a pure function of the seed.
chaos_run() {
    local seed="$1" suite="$2"
    echo "=== chaos: $suite, FABRIC_SEED=$seed ==="
    if ! FABRIC_SEED="$seed" cargo test --offline --release -q --test "$suite"; then
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
cargo clippy --offline --release -p lci -p mini-mpi -- -D warnings
echo "ALL TESTS OK"
