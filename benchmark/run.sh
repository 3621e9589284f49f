#!/usr/bin/env bash
# The repository benchmark: build offline, then run.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in a fresh process (what BENCHMARK.json's command runs);
#       the last line of stdout is the result as JSON
#   benchmark/run.sh
#       every workload untraced, then the traced per-layer suite, printed
#   benchmark/run.sh --quick
#       smallest run of everything; checks every metric name in BENCHMARK.json
#   benchmark/run.sh --repeat-check
#       two sets of end-to-end runs (ten seeds each) must agree within the
#       declared bounds
#
# Works from any directory. Honors CARGO_TARGET_DIR (relative to the caller's
# directory, as cargo reads it); otherwise builds into benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --bin lcibench >&2
bin="$target/release/lcibench"
if [ "${1:-}" = "--workload" ]; then
    exec "$bin" "$@"
fi
exec "$bin" --manifest "$here/../BENCHMARK.json" "$@"
