//! # lci-trace
//!
//! Always-compiled, low-overhead observability for the LCI reproduction:
//!
//! * [`counters`] — a typed counter table per simulated host, summed into
//!   reads of the process-wide one. Hot path is one relaxed `fetch_add` on
//!   a cache-line-padded atomic of the host's own; readers diff
//!   [`CounterSnapshot`]s.
//! * [`ring`] — per-thread fixed-capacity event rings. No allocation or
//!   locking on the hot path; overflow drops oldest and counts the drops.
//! * [`span`] — RAII phase timers that feed the `phase.*_ns` counters,
//!   giving trace-derived compute/comm breakdowns (Fig 6) instead of
//!   wall-clock subtraction.
//! * [`report`] — the `BENCH_<name>.json` schema the `fig*` binaries write.
//! * [`json`] — the dependency-free JSON reader/writer underneath (also what
//!   the repo benchmark and the `bench_pins` gate read results with).
//!
//! The crate is std-only by design: it sits below every other crate in
//! the workspace and must never drag a dependency into the hot path.

#![warn(missing_docs)]

pub mod counters;
pub mod json;
pub mod report;
pub mod ring;
pub mod span;

pub use counters::{add, global, incr, set, Counter, CounterSnapshot, Registry, Unit};
pub use report::{BenchReport, Metric, PhaseNs, SCHEMA_VERSION};
pub use ring::{record, with_ring, EventKind, Ring, TraceEvent};
pub use span::Span;
