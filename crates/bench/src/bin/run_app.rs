//! General-purpose driver: run any app on any engine/layer/policy/graph.
//!
//! ```text
//! run_app [--app bfs|cc|sssp|pagerank|widest] [--engine abelian|gemini]
//!         [--layer lci|mpi-probe|mpi-rma] [--graph rmat13|kron14|webby12|PATH]
//!         [--hosts N] [--fabric stampede2|stampede1|test] [--source V]
//!         [--threads N] [--verify]
//! ```
//!
//! `--graph` accepts either a generator spec (`rmat<scale>` etc.) or a path
//! to an edge-list / `.bin` file. `--verify` checks the distributed result
//! against the sequential reference.

use abelian::apps::{reference, App, Bfs, Cc, PageRank, Sssp, WidestPath};
use abelian::{build_layers, run_app, EngineConfig, LayerKind};
use gemini::{run_gemini, GeminiConfig};
use lci_bench::{fabric_by_name, fmt_bytes, fmt_dur, graph_by_name, host_totals};
use lci_graph::{partition, CsrGraph, GraphStats, Policy, Vid};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

fn parse_args() -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(key) = a.strip_prefix("--") {
            if key == "verify" {
                out.insert("verify".into(), "1".into());
            } else {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("missing value for --{key}");
                    std::process::exit(2);
                });
                out.insert(key.to_string(), v);
            }
        } else {
            eprintln!("unexpected argument {a:?}");
            std::process::exit(2);
        }
    }
    out
}

fn load_graph(spec: &str) -> CsrGraph {
    if std::path::Path::new(spec).exists() {
        let g = lci_graph::io::load(spec).unwrap_or_else(|e| {
            eprintln!("failed to load {spec}: {e}");
            std::process::exit(1);
        });
        if g.is_weighted() {
            g
        } else {
            lci_graph::gen::randomize_weights(&g, 100, 0x5EED)
        }
    } else {
        graph_by_name(spec)
    }
}

fn main() {
    let args = parse_args();
    let get = |k: &str, d: &str| args.get(k).cloned().unwrap_or_else(|| d.to_string());

    let app = get("app", "bfs");
    let engine = get("engine", "abelian");
    let layer = get("layer", "lci");
    let graph = get("graph", "rmat12");
    let hosts: usize = get("hosts", "4").parse().expect("bad --hosts");
    let fabric = get("fabric", "stampede2");
    let source: Vid = get("source", "0").parse().expect("bad --source");
    let threads: usize = get("threads", "1").parse().expect("bad --threads");
    let verify = args.contains_key("verify");

    let g = load_graph(&graph);
    println!("{}", GraphStats::of(&g).row(&graph));

    let policy = match engine.as_str() {
        "abelian" => Policy::VertexCutCartesian,
        "gemini" => Policy::EdgeCutBlocked,
        other => {
            eprintln!("unknown engine {other}");
            std::process::exit(2);
        }
    };
    let parts = partition(&g, hosts, policy);
    println!(
        "partitioned: {} @ {hosts} hosts, {} mirrors",
        policy.name(),
        parts.total_mirrors()
    );

    let kind = match layer.as_str() {
        "lci" => LayerKind::Lci,
        "mpi-probe" => LayerKind::MpiProbe,
        "mpi-rma" => LayerKind::MpiRma,
        other => {
            eprintln!("unknown layer {other}");
            std::process::exit(2);
        }
    };
    let (layers, _world) = build_layers(
        kind,
        fabric_by_name(&fabric, hosts),
        mini_mpi::MpiConfig::default(),
        lci::LciConfig::for_hosts(hosts),
    );

    fn drive<A: App>(
        engine: &str,
        parts: &lci_graph::Partitioning,
        app: A,
        layers: &[Arc<dyn abelian::CommLayer>],
        threads: usize,
    ) -> (abelian::RunResult<A::Acc>, std::time::Duration) {
        let t0 = Instant::now();
        let r = match engine {
            "abelian" => run_app(
                parts,
                Arc::new(app),
                layers,
                &EngineConfig {
                    compute_threads: threads,
                },
            ),
            _ => run_gemini(parts, Arc::new(app), layers, &GeminiConfig::default()),
        };
        (r, t0.elapsed())
    }

    // `$verdict`: `Some((ok, how it was compared))` when asked to verify.
    macro_rules! report {
        ($r:expr, $dt:expr, $verdict:expr) => {{
            let (r, dt) = (&$r, $dt);
            println!(
                "{} on {} via {}: {} rounds in {}",
                app,
                engine,
                layer,
                r.rounds,
                fmt_dur(dt)
            );
            let hosts: Vec<_> = r.hosts.iter().map(|h| h.metrics.clone()).collect();
            let (compute, comm) = abelian::metrics::aggregate_breakdown(&hosts);
            println!(
                "  compute {} | non-overlapped comm {} | mem peak max {}",
                fmt_dur(compute),
                fmt_dur(comm),
                fmt_bytes(r.mem_peak_max())
            );
            print!("{}", host_totals(&hosts));
            if let Some((ok, how)) = $verdict {
                if ok {
                    println!("  verify: OK ({how})");
                } else {
                    println!("  verify: MISMATCH");
                    std::process::exit(1);
                }
            }
        }};
    }
    const EXACT: &str = "matches sequential reference";

    match app.as_str() {
        "bfs" => {
            let (r, dt) = drive(&engine, &parts, Bfs { source }, &layers, threads);
            report!(r, dt, verify.then(|| (r.values == reference::bfs(&g, source), EXACT)));
        }
        "cc" => {
            let (r, dt) = drive(&engine, &parts, Cc, &layers, threads);
            report!(r, dt, verify.then(|| (r.values == reference::cc(&g), EXACT)));
        }
        "sssp" => {
            let (r, dt) = drive(&engine, &parts, Sssp { source }, &layers, threads);
            report!(r, dt, verify.then(|| (r.values == reference::sssp(&g, source), EXACT)));
        }
        "widest" => {
            let (r, dt) = drive(&engine, &parts, WidestPath { source }, &layers, threads);
            report!(r, dt, verify.then(|| (r.values == reference::widest_path(&g, source), EXACT)));
        }
        "pagerank" => {
            let (r, dt) = drive(&engine, &parts, PageRank::default(), &layers, threads);
            // Float drift: verify within tolerance instead of equality.
            let close = || {
                let expect = reference::pagerank(&g, 0.85, 1e-4, 100);
                let near = |(a, b): (&f32, &f32)| (a - b).abs() <= 0.05 * b.max(1.0);
                (r.values.iter().zip(&expect).all(near), "within 5%")
            };
            report!(r, dt, verify.then(close));
        }
        other => {
            eprintln!("unknown app {other}");
            std::process::exit(2);
        }
    }
}
