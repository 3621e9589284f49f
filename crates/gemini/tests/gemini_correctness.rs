//! Gemini engine correctness against the sequential references.

use abelian::apps::{reference, App, Bfs, Cc, PageRank, Sssp};
use abelian::{build_layers, LayerKind};
use gemini::{run_gemini, GeminiConfig};
use lci_fabric::FabricConfig;
use lci_graph::{gen, partition, CsrGraph, Policy};
use mini_mpi::{MpiConfig, Personality, ThreadLevel};
use std::sync::Arc;

fn run<A: App>(g: &CsrGraph, hosts: usize, kind: LayerKind, app: A) -> Vec<A::Acc> {
    let parts = partition(g, hosts, Policy::EdgeCutBlocked);
    parts.validate(g);
    // Gemini's original runtime uses MPI_THREAD_MULTIPLE (paper §IV-B1).
    let (layers, _world) = build_layers(
        kind,
        FabricConfig::test(hosts),
        MpiConfig::default()
            .with_personality(Personality::zero())
            .with_thread_level(ThreadLevel::Multiple),
        lci::LciConfig::for_hosts(hosts),
    );
    run_gemini(&parts, Arc::new(app), &layers, &GeminiConfig::default()).values
}

#[test]
fn bfs_matches_reference() {
    let g = gen::rmat(8, 6, 42);
    let expect = reference::bfs(&g, 0);
    for kind in [LayerKind::Lci, LayerKind::MpiProbe] {
        assert_eq!(run(&g, 4, kind, Bfs { source: 0 }), expect, "{}", kind.name());
    }
}

#[test]
fn cc_matches_reference_and_uses_dense_mode() {
    // All vertices active initially: round 0 must go dense.
    let g = gen::rmat(8, 8, 5);
    let expect = reference::cc(&g);
    let parts = partition(&g, 4, Policy::EdgeCutBlocked);
    let (layers, _world) = build_layers(
        LayerKind::Lci,
        FabricConfig::test(4),
        MpiConfig::default(),
        lci::LciConfig::for_hosts(4),
    );
    let r = run_gemini(&parts, Arc::new(Cc), &layers, &GeminiConfig::default());
    assert_eq!(r.values, expect);
    // Dense frames carry one entry per plan slot: round 0 sent_entries must
    // equal total mirror plan sizes for at least one host.
    let h0 = &r.hosts[0];
    let plan_total: usize = parts.parts[0]
        .mirror_send
        .iter()
        .map(|p| p.len())
        .sum();
    assert!(
        h0.metrics.rounds[0].sent_entries as usize >= plan_total,
        "expected dense round 0: {} sent vs plan {}",
        h0.metrics.rounds[0].sent_entries,
        plan_total
    );
}

#[test]
fn sssp_matches_reference() {
    let g = gen::randomize_weights(&gen::rmat(8, 6, 7), 10, 3);
    let expect = reference::sssp(&g, 0);
    assert_eq!(run(&g, 3, LayerKind::Lci, Sssp { source: 0 }), expect);
}

#[test]
fn pagerank_close_to_reference() {
    let g = gen::rmat(8, 6, 9);
    let expect = reference::pagerank(&g, 0.85, 1e-4, 100);
    let got = run(&g, 4, LayerKind::Lci, PageRank::default());
    for v in 0..g.num_vertices() {
        let d = (got[v] - expect[v]).abs();
        assert!(
            d <= 0.05 * expect[v].max(1.0),
            "pagerank[{v}] {} vs {}",
            got[v],
            expect[v]
        );
    }
}

#[test]
fn sparse_mode_on_low_activity() {
    // BFS from a path end: few active per round → sparse frames (entries well
    // below plan totals).
    let g = gen::path(128);
    let expect = reference::bfs(&g, 0);
    let got = run(&g, 4, LayerKind::Lci, Bfs { source: 0 });
    assert_eq!(got, expect);
}

#[test]
#[should_panic(expected = "edge-cut")]
fn vertex_cut_rejected() {
    let g = gen::rmat(6, 4, 1);
    let parts = partition(&g, 2, Policy::VertexCutCartesian);
    let (layers, _world) = build_layers(
        LayerKind::Lci,
        FabricConfig::test(2),
        MpiConfig::default(),
        lci::LciConfig::default(),
    );
    let _ = run_gemini(
        &parts,
        Arc::new(Cc),
        &layers,
        &GeminiConfig::default(),
    );
}

#[test]
fn single_host() {
    let g = gen::rmat(7, 4, 3);
    let expect = reference::bfs(&g, 0);
    assert_eq!(run(&g, 1, LayerKind::Lci, Bfs { source: 0 }), expect);
}

#[test]
fn gemini_over_rma_with_chunking() {
    // Chunked frames through the MPI-RMA layer: the layer must coalesce
    // multiple sends per peer per round into its single slot put.
    let g = gen::rmat(8, 6, 42);
    let expect = reference::bfs(&g, 0);
    assert_eq!(run(&g, 4, LayerKind::MpiRma, Bfs { source: 0 }), expect);
    let expect = reference::cc(&g);
    assert_eq!(run(&g, 3, LayerKind::MpiRma, Cc), expect);
}

/// FNV-1a over the values' wire bytes: moves if any bit of any answer does.
fn values_hash<L: abelian::Label>(values: &[L]) -> u64 {
    let mut bytes = Vec::new();
    values.iter().for_each(|v| v.write(&mut bytes));
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `(rounds, Σ sent_entries over hosts and rounds, values_hash)` of `app` on
/// three hosts over LCI.
fn observe<A: App>(g: &CsrGraph, app: A) -> (usize, u64, u64) {
    let parts = partition(g, 3, Policy::EdgeCutBlocked);
    let (layers, _world) = build_layers(
        LayerKind::Lci,
        FabricConfig::test(3),
        MpiConfig::default(),
        lci::LciConfig::for_hosts(3),
    );
    let r = run_gemini(&parts, Arc::new(app), &layers, &GeminiConfig::default());
    let entries = r.hosts.iter().flat_map(|h| &h.metrics.rounds).map(|m| m.sent_entries).sum();
    (r.rounds, entries, values_hash(&r.values))
}

/// Same answers, same rounds: pinned at the last commit that ended every
/// round with a control all-reduce (PR 16), on the graphs of the Abelian
/// suite's twin (`engine_correctness.rs`) — a small weighted rmat and a
/// descending 40-vertex path. PageRank's hash on the rmat is not pinned: with
/// three hosts its float sums fold in arrival order, at the parent too.
#[test]
fn rounds_entries_and_values_are_the_control_exchange_engines() {
    use abelian::apps::{MultiSourceReach, WidestPath};
    let n = 40u32;
    let hops: Vec<(u32, u32)> = (1..n).map(|i| (i, i - 1)).collect();
    let graphs = [
        (gen::randomize_weights(&gen::rmat(7, 4, 0x601D), 10, 0x55), 0),
        (CsrGraph::from_edges(n as usize, &hops), n - 1),
    ];
    // Per graph, apps in the order run below.
    // `None`: not pinned, see above.
    let pinned: [[(usize, u64, Option<u64>); 6]; 2] = [
        [
            (4, 216, Some(1486777556585046100)),
            (4, 305, Some(186102878921650271)),
            (3, 235, Some(14600793250840921602)),
            (20, 2947, None),
            (5, 303, Some(7257646108541269479)),
            (5, 417, Some(3108423098834151621)),
        ],
        [
            (40, 2, Some(3839218244705206053)),
            (40, 2, Some(3839218244705206053)),
            (1, 2, Some(17730087810143058725)),
            (39, 38, Some(5708566918114248096)),
            (40, 2, Some(13902953559477976880)),
            (40, 3, Some(7623125984557940133)),
        ],
    ];
    for ((g, src), want) in graphs.iter().zip(pinned) {
        let got = [
            observe(g, Bfs { source: *src }),
            observe(g, Sssp { source: *src }),
            observe(g, Cc),
            observe(g, PageRank::default()),
            observe(g, WidestPath { source: *src }),
            observe(g, MultiSourceReach { sources: vec![*src, 3, 17] }),
        ];
        for (app, (got, want)) in got.into_iter().zip(want).enumerate() {
            let what = format!("app #{app} on {} vertices", g.num_vertices());
            assert_eq!((got.0, got.1), (want.0, want.1), "rounds, entries: {what}");
            assert_eq!(want.2.unwrap_or(got.2), got.2, "value bits: {what}");
        }
    }
}
