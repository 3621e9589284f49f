//! # lci-bench — harness utilities shared by the per-figure binaries
//!
//! Each table/figure of the paper has a binary under `src/bin/` (see
//! DESIGN.md for the index). This library holds the shared plumbing:
//! scenario construction (graphs, fabrics, layers), timed runs of the
//! Abelian and Gemini engines, and tabular output helpers.
//!
//! Scale note: the paper ran up to 128 KNL hosts on billion-edge graphs;
//! this harness simulates hosts as threads on one machine, so defaults are
//! scaled down (see the `--scale`/env knobs in each binary). The *shapes* —
//! who wins, by roughly what factor — are the reproduction target, not the
//! absolute numbers.

#![warn(missing_docs)]

use abelian::apps::{Bfs, Cc, PageRank, Sssp};
use abelian::metrics::HostMetrics;
use abelian::{build_layers, run_app, EngineConfig, LayerKind, RunResult};
use bytes::Bytes;
use gemini::{run_gemini, GeminiConfig};
use lci::{Device, LciWorld};
use lci_fabric::FabricConfig;
use lci_graph::{gen, partition, CsrGraph, Partitioning, Policy};
use mini_mpi::{MpiConfig, Personality, ThreadLevel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which application to run (string-keyed for CLI sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Breadth-first search.
    Bfs,
    /// Connected components.
    Cc,
    /// PageRank (residual, ≤100 iterations).
    PageRank,
    /// Single-source shortest paths.
    Sssp,
}

impl AppKind {
    /// The paper's four benchmarks in its order.
    pub fn all() -> [AppKind; 4] {
        [AppKind::Bfs, AppKind::Cc, AppKind::PageRank, AppKind::Sssp]
    }

    /// Name as in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::Bfs => "bfs",
            AppKind::Cc => "cc",
            AppKind::PageRank => "pagerank",
            AppKind::Sssp => "sssp",
        }
    }
}

/// Build a named input graph. `rmat<scale>` / `kron<scale>` / `webby<scale>`
/// mirror the paper's rmat28 / kron30 / clueweb12 at reduced scale.
pub fn graph_by_name(name: &str) -> CsrGraph {
    let (kind, scale) = name.split_at(
        name.find(|c: char| c.is_ascii_digit())
            .unwrap_or_else(|| panic!("graph name needs a scale: {name}")),
    );
    let scale: u32 = scale.parse().unwrap_or_else(|_| panic!("bad scale in {name}"));
    let g = match kind {
        "rmat" => gen::rmat(scale, 16, 0x2818),
        "kron" => gen::kron(scale, 16, 0x3030),
        "webby" => gen::webby(scale, 8, 0xC1EB),
        other => panic!("unknown graph kind {other}"),
    };
    // sssp needs weights; attach them to every input once.
    gen::randomize_weights(&g, 100, 0x5EED)
}

/// A named fabric preset ("stampede2" / "stampede1" / "test").
pub fn fabric_by_name(name: &str, hosts: usize) -> FabricConfig {
    match name {
        "stampede2" => FabricConfig::stampede2(hosts),
        "stampede1" => FabricConfig::stampede1(hosts),
        "test" => FabricConfig::test(hosts),
        other => panic!("unknown fabric {other}"),
    }
}

/// Outcome of one timed engine run.
pub struct Timing {
    /// End-to-end wall time of the run.
    pub total: Duration,
    /// Summed per-round max-across-hosts compute time.
    pub compute: Duration,
    /// Summed per-round non-overlapped communication time: what is left of
    /// each round beside its slowest host's compute
    /// ([`abelian::metrics::aggregate_breakdown`]).
    pub comm: Duration,
    /// Every host's own metrics, rank order (for [`host_totals`]).
    pub hosts: Vec<HostMetrics>,
    /// Rounds executed.
    pub rounds: usize,
    /// Peak communication-buffer bytes, max across hosts.
    pub mem_max: u64,
    /// Peak communication-buffer bytes, min across hosts.
    pub mem_min: u64,
}

/// Time one engine run, from its call to its return.
fn timed<L: abelian::Label>(run: impl FnOnce() -> RunResult<L>) -> Timing {
    let t0 = Instant::now();
    let r = run();
    let total = t0.elapsed();
    let hosts: Vec<HostMetrics> = r.hosts.iter().map(|h| h.metrics.clone()).collect();
    let (compute, comm) = abelian::metrics::aggregate_breakdown(&hosts);
    Timing {
        total,
        compute,
        comm,
        hosts,
        rounds: r.rounds,
        mem_max: r.mem_peak_max(),
        mem_min: r.mem_peak_min(),
    }
}

/// One fully described benchmark scenario.
pub struct Scenario<'a> {
    /// Partitioned input.
    pub parts: &'a Partitioning,
    /// Fabric preset.
    pub fabric: FabricConfig,
    /// Communication layer under test.
    pub layer: LayerKind,
    /// MPI personality (ignored by the LCI layer).
    pub personality: Personality,
    /// MPI thread level.
    pub thread_level: ThreadLevel,
}

impl<'a> Scenario<'a> {
    /// Standard scenario: given partitioning + layer on a Stampede2-like
    /// fabric with the default (IntelMPI-like) personality.
    pub fn new(parts: &'a Partitioning, layer: LayerKind) -> Scenario<'a> {
        let hosts = parts.parts.len();
        Scenario {
            parts,
            fabric: FabricConfig::stampede2(hosts),
            layer,
            personality: Personality::default(),
            thread_level: ThreadLevel::Funneled,
        }
    }

    fn build(&self) -> (Vec<Arc<dyn abelian::CommLayer>>, abelian::LayerWorld) {
        let hosts = self.parts.parts.len();
        build_layers(
            self.layer,
            self.fabric.clone(),
            MpiConfig::default()
                .with_personality(self.personality.clone())
                .with_thread_level(self.thread_level),
            lci::LciConfig::for_hosts(hosts),
        )
    }

    /// Run an Abelian app and time it.
    pub fn run_abelian(&self, app: AppKind) -> Timing {
        let (p, (layers, _world)) = (self.parts, self.build());
        let cfg = EngineConfig::default();
        match app {
            AppKind::Bfs => timed(|| run_app(p, Arc::new(Bfs { source: 0 }), &layers, &cfg)),
            AppKind::Cc => timed(|| run_app(p, Arc::new(Cc), &layers, &cfg)),
            AppKind::PageRank => timed(|| run_app(p, Arc::new(PageRank::default()), &layers, &cfg)),
            AppKind::Sssp => timed(|| run_app(p, Arc::new(Sssp { source: 0 }), &layers, &cfg)),
        }
    }

    /// Run a Gemini app and time it (edge-cut partitionings only).
    pub fn run_gemini(&self, app: AppKind) -> Timing {
        let (p, (layers, _world)) = (self.parts, self.build());
        let cfg = GeminiConfig::default();
        match app {
            AppKind::Bfs => timed(|| run_gemini(p, Arc::new(Bfs { source: 0 }), &layers, &cfg)),
            AppKind::Cc => timed(|| run_gemini(p, Arc::new(Cc), &layers, &cfg)),
            AppKind::PageRank => {
                timed(|| run_gemini(p, Arc::new(PageRank::default()), &layers, &cfg))
            }
            AppKind::Sssp => timed(|| run_gemini(p, Arc::new(Sssp { source: 0 }), &layers, &cfg)),
        }
    }
}

/// Partition helper with the policies the two systems use.
pub fn partition_for(g: &CsrGraph, hosts: usize, system: &str) -> Partitioning {
    match system {
        // Abelian: advanced vertex-cut (paper ref [27]).
        "abelian" => partition(g, hosts, Policy::VertexCutCartesian),
        // Gemini: blocked edge-cut.
        "gemini" => partition(g, hosts, Policy::EdgeCutBlocked),
        other => panic!("unknown system {other}"),
    }
}

/// Format a `Duration` in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Format bytes in adaptive units.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// One line per host, rank order: its own compute and everything else it did
/// or waited for, summed over rounds. The aggregate rows take per-round
/// maxima, which hides *whose* compute a run is; an imbalance between hosts
/// shows here.
pub fn host_totals(hosts: &[HostMetrics]) -> String {
    let line = |(h, m): (usize, &HostMetrics)| {
        let (compute, rest) = (fmt_dur(m.total_compute()), fmt_dur(m.total_comm()));
        format!("  host {h}: compute {compute} | comm + wait {rest}\n")
    };
    hosts.iter().enumerate().map(line).collect()
}

/// Dump per-round, per-host engine metrics as CSV (one row per host-round):
/// `host,round,compute_us,comm_us,sent_entries,sent_bytes`. Feed it a
/// [`RunResult`]'s hosts for offline plotting.
pub fn rounds_csv<L: abelian::Label>(r: &RunResult<L>) -> String {
    let mut out = String::from("host,round,compute_us,comm_us,sent_entries,sent_bytes\n");
    for h in &r.hosts {
        for (i, m) in h.metrics.rounds.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{:.1},{:.1},{},{}\n",
                h.host,
                i,
                m.compute.as_secs_f64() * 1e6,
                m.comm.as_secs_f64() * 1e6,
                m.sent_entries,
                m.sent_bytes
            ));
        }
    }
    out
}

/// Run `trials` timed repetitions and keep the median (by total time) —
/// the paper reports the mean of 5 runs; on a single-core simulation host
/// the median is the robust equivalent (scheduler outliers are heavy).
pub fn median_timing(trials: usize, mut f: impl FnMut() -> Timing) -> Timing {
    assert!(trials >= 1);
    let mut v: Vec<Timing> = (0..trials).map(|_| f()).collect();
    v.sort_by_key(|a| a.total);
    v.swap_remove(v.len() / 2)
}

/// Machine-readable bench output: every binary in this crate funnels its
/// headline numbers through here so CI (and humans) get one stable
/// `BENCH_<name>.json` per run next to the pretty tables. See
/// EXPERIMENTS.md for the schema.
pub mod emit {
    use lci_trace::counters::ALL_COUNTERS;
    use lci_trace::{BenchReport, CounterSnapshot, Metric, PhaseNs, Unit};
    use std::path::PathBuf;

    /// Where `BENCH_*.json` files land: `BENCH_JSON_DIR`, default `results`.
    pub fn out_dir() -> PathBuf {
        PathBuf::from(super::env_str("BENCH_JSON_DIR", "results"))
    }

    /// Delimits the measured section of a run against the global trace
    /// registry; `end` returns the counter deltas the section produced.
    pub struct TraceSection {
        before: CounterSnapshot,
    }

    impl TraceSection {
        /// Snapshot the registry at the start of the measured section.
        #[allow(clippy::new_without_default)]
        pub fn begin() -> TraceSection {
            TraceSection {
                before: lci_trace::global().snapshot(),
            }
        }

        /// Counter deltas accumulated since [`TraceSection::begin`].
        pub fn end(self) -> CounterSnapshot {
            lci_trace::global().snapshot().delta(&self.before)
        }
    }

    /// Add a metric.
    pub fn push_info(r: &mut BenchReport, name: &str, unit: &str, value: f64) {
        r.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        });
    }

    /// Fold a [`TraceSection`] delta into the report: `phase.*` counters
    /// become the per-phase breakdown (the trace-derived replacement for
    /// wall-clock subtraction), every other non-zero counter is recorded
    /// under `counters`.
    pub fn attach_trace(r: &mut BenchReport, delta: &CounterSnapshot) {
        for &c in ALL_COUNTERS.iter() {
            let v = delta.get(c);
            if c.unit() == Unit::Nanos && c.name().starts_with("phase.") {
                r.phases.push(PhaseNs {
                    name: c.name().to_string(),
                    ns: v,
                });
            } else if v > 0 {
                r.counters.push((c.name().to_string(), v));
            }
        }
    }

    /// Write the report into [`out_dir`] and announce the path on stdout.
    pub fn write(r: &BenchReport) -> PathBuf {
        let path = r
            .write_to_dir(&out_dir())
            .unwrap_or_else(|e| panic!("writing {}: {e}", r.file_name()));
        println!("bench json: {}", path.display());
        path
    }
}

/// One-way LCI latency between devices 0 and 1 of `world`: half the median
/// of `iters` round trips of `payload`, after `warmup` unmeasured ones (the
/// median is robust against the scheduler outliers of a simulation host).
pub fn lci_pingpong(world: &LciWorld, payload: Bytes, iters: usize, warmup: usize) -> Duration {
    let (a, b) = (world.device(0), world.device(1));
    let pb = payload.clone();
    let echo = std::thread::spawn(move || {
        for _ in 0..iters + warmup {
            lci_recv_one(&b);
            lci_send_one(&b, pb.clone(), 0);
        }
    });
    let mut rtts = Vec::with_capacity(iters);
    for i in 0..iters + warmup {
        let t0 = Instant::now();
        lci_send_one(&a, payload.clone(), 1);
        lci_recv_one(&a);
        if i >= warmup {
            rtts.push(t0.elapsed());
        }
    }
    echo.join().unwrap();
    rtts.sort();
    rtts[rtts.len() / 2] / 2
}

/// `SEND-ENQ` `data` to `dst`, retrying while the device refuses, and drive
/// progress until the send completes.
pub fn lci_send_one(d: &Device, data: Bytes, dst: u16) {
    loop {
        match d.send_enq(data.clone(), dst, 7) {
            Ok(req) => {
                while !req.is_done() {
                    if d.progress() == 0 {
                        std::thread::yield_now();
                    }
                }
                return;
            }
            Err(e) if e.is_retryable() => {
                d.progress();
                std::thread::yield_now();
            }
            Err(e) => panic!("{e}"),
        }
    }
}

/// `RECV-DEQ` the next message on `d` and drive progress until its data is
/// in.
pub fn lci_recv_one(d: &Device) {
    loop {
        d.progress();
        if let Some(r) = d.recv_deq() {
            while !r.is_done() {
                if d.progress() == 0 {
                    std::thread::yield_now();
                }
            }
            let _ = r.take_data();
            return;
        }
        std::thread::yield_now();
    }
}

/// Read an env-var-with-default usize (scaling knobs in binaries).
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read an env-var-with-default string.
pub fn env_str(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_by_name_parses() {
        let g = graph_by_name("rmat8");
        assert_eq!(g.num_vertices(), 256);
        assert!(g.is_weighted());
        let k = graph_by_name("kron7");
        assert_eq!(k.num_vertices(), 128);
        let w = graph_by_name("webby7");
        assert_eq!(w.num_vertices(), 128);
    }

    #[test]
    #[should_panic(expected = "unknown graph kind")]
    fn bad_graph_name() {
        graph_by_name("zork9");
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_dur(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_dur(Duration::from_micros(7)), "7.0us");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn scenario_runs_quickly_on_test_fabric() {
        let g = graph_by_name("rmat7");
        let parts = partition_for(&g, 2, "abelian");
        let mut sc = Scenario::new(&parts, LayerKind::Lci);
        sc.fabric = FabricConfig::test(2);
        let t = sc.run_abelian(AppKind::Bfs);
        assert!(t.rounds > 0);
        assert!(t.total > Duration::ZERO);
    }

    #[test]
    fn emit_helpers_produce_a_valid_report() {
        let mut r = lci_trace::BenchReport::new("emit_test");
        r.config.push(("graph".into(), "rmat7".into()));
        let section = emit::TraceSection::begin();
        emit::push_info(&mut r, "t_ms", "ms", 3.0);
        lci_trace::incr(lci_trace::Counter::EngineRounds);
        emit::attach_trace(&mut r, &section.end());
        // The phases array always carries every phase.* counter…
        assert!(r.phases.iter().any(|p| p.name == "phase.compute_ns"));
        // …and the counter we bumped shows up as a non-zero delta.
        assert!(r.counters.iter().any(|(k, v)| k == "engine.rounds" && *v >= 1));
        // Everything the helpers built must round-trip the schema.
        let back = lci_trace::BenchReport::parse_str(&r.to_json().pretty()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metric("t_ms").unwrap().value, 3.0);
    }

    #[test]
    fn rounds_csv_shape() {
        let g = graph_by_name("rmat7");
        let parts = partition_for(&g, 2, "abelian");
        let (layers, _world) = build_layers(
            LayerKind::Lci,
            FabricConfig::test(2),
            MpiConfig::default(),
            lci::LciConfig::for_hosts(2),
        );
        let r = run_app(
            &parts,
            Arc::new(Bfs { source: 0 }),
            &layers,
            &abelian::EngineConfig::default(),
        );
        let csv = rounds_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("host,round"));
        assert_eq!(lines.len() - 1, 2 * r.rounds, "one row per host-round");
        assert!(lines[1].starts_with("0,0,"));
    }
}
