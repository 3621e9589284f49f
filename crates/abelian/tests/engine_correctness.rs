//! End-to-end correctness: every app × every communication layer × every
//! partitioning policy must reproduce the sequential reference results.

use abelian::apps::{reference, App, Bfs, Cc, PageRank, Sssp, WidestPath};
use abelian::comm::{channels, ChannelSpec, CommLayer};
use abelian::{build_layers, run_app, EngineConfig, LayerKind};
use lci_fabric::FabricConfig;
use lci_graph::{gen, partition, CsrGraph, Partitioning, Policy};
use lci_trace::{Counter, Registry};
use std::sync::{Arc, Mutex};

fn run<A: App>(
    g: &CsrGraph,
    hosts: usize,
    policy: Policy,
    kind: LayerKind,
    app: A,
) -> Vec<A::Acc> {
    let parts = partition(g, hosts, policy);
    parts.validate(g);
    let (layers, _world) = build_layers(
        kind,
        FabricConfig::test(hosts),
        mini_mpi::MpiConfig::default()
            .with_personality(mini_mpi::Personality::zero()),
        lci::LciConfig::for_hosts(hosts),
    );
    let result = run_app(&parts, Arc::new(app), &layers, &EngineConfig::default());
    result.values
}

#[test]
fn bfs_matches_reference_all_layers_all_policies() {
    let g = gen::rmat(8, 6, 42);
    let expect = reference::bfs(&g, 0);
    for kind in LayerKind::all() {
        for policy in Policy::all() {
            let got = run(&g, 4, policy, kind, Bfs { source: 0 });
            assert_eq!(
                got, expect,
                "bfs mismatch: {} / {}",
                kind.name(),
                policy.name()
            );
        }
    }
}

#[test]
fn sssp_matches_reference_all_layers() {
    let g = gen::randomize_weights(&gen::rmat(8, 6, 7), 10, 3);
    let expect = reference::sssp(&g, 0);
    for kind in LayerKind::all() {
        let got = run(&g, 4, Policy::VertexCutCartesian, kind, Sssp { source: 0 });
        assert_eq!(got, expect, "sssp mismatch: {}", kind.name());
    }
}

#[test]
fn cc_matches_reference_all_layers() {
    let g = gen::rmat(8, 4, 11);
    let expect = reference::cc(&g);
    for kind in LayerKind::all() {
        let got = run(&g, 4, Policy::VertexCutCartesian, kind, Cc);
        assert_eq!(got, expect, "cc mismatch: {}", kind.name());
    }
}

#[test]
fn pagerank_close_to_reference_all_layers() {
    let g = gen::rmat(8, 6, 9);
    let pr = PageRank {
        alpha: 0.85,
        tolerance: 1e-4,
        max_iters: 100,
    };
    let expect = reference::pagerank(&g, 0.85, 1e-4, 100);
    for kind in LayerKind::all() {
        let got = run(
            &g,
            4,
            Policy::VertexCutCartesian,
            kind,
            PageRank {
                alpha: 0.85,
                tolerance: 1e-4,
                max_iters: 100,
            },
        );
        assert_ranks_close(&got, &expect, kind.name());
        let _ = &pr;
    }
}

/// The distributed schedule differs from the sequential one, so the dropped
/// sub-tolerance residuals differ: allow a small bound.
fn assert_ranks_close(got: &[f32], expect: &[f32], how: &str) {
    assert_eq!(got.len(), expect.len());
    for (v, (got, expect)) in got.iter().zip(expect).enumerate() {
        let d = (got - expect).abs();
        assert!(d <= 0.05 * expect.max(1.0), "pagerank[{v}] {got} vs {expect} via {how}");
    }
}

#[test]
fn widest_path_matches_reference_all_layers() {
    // Max-based reduction: the remaining monotone reduce class.
    let g = gen::randomize_weights(&gen::rmat(8, 6, 19), 50, 5);
    let expect = reference::widest_path(&g, 0);
    for kind in LayerKind::all() {
        let got = run(
            &g,
            4,
            Policy::VertexCutCartesian,
            kind,
            WidestPath { source: 0 },
        );
        assert_eq!(got, expect, "widest mismatch: {}", kind.name());
    }
}

#[test]
fn multi_source_reach_matches_reference() {
    use abelian::apps::MultiSourceReach;
    let g = gen::rmat(8, 6, 23);
    let sources = vec![0, 17, 99, 200];
    let expect = reference::multi_source_reach(&g, &sources);
    for kind in LayerKind::all() {
        let got = run(
            &g,
            4,
            Policy::VertexCutCartesian,
            kind,
            MultiSourceReach {
                sources: sources.clone(),
            },
        );
        assert_eq!(got, expect, "msreach mismatch: {}", kind.name());
    }
}

#[test]
fn probe_layer_aggregation_of_tiny_messages() {
    // A path graph at 4 hosts produces hundreds of rounds of tiny frames —
    // all under the aggregation threshold, so everything flows through the
    // buffered network layer (§III-B) and must still be correct.
    let g = gen::path(200);
    let expect = reference::bfs(&g, 0);
    let got = run(
        &g,
        4,
        Policy::EdgeCutBlocked,
        LayerKind::MpiProbe,
        Bfs { source: 0 },
    );
    assert_eq!(got, expect);
}

#[test]
fn bfs_on_path_graph_worst_case_rounds() {
    // A path forces one round per level: stress the round machinery.
    let g = gen::path(64);
    let expect = reference::bfs(&g, 0);
    let got = run(&g, 3, Policy::EdgeCutBlocked, LayerKind::Lci, Bfs { source: 0 });
    assert_eq!(got, expect);
}

#[test]
fn single_host_degenerate_case() {
    let g = gen::rmat(7, 4, 5);
    let expect = reference::bfs(&g, 0);
    for kind in LayerKind::all() {
        let got = run(&g, 1, Policy::EdgeCutBlocked, kind, Bfs { source: 0 });
        assert_eq!(got, expect, "single-host {}", kind.name());
    }
}

#[test]
fn unreachable_vertices_stay_at_identity() {
    // Star pointing out of 0: vertex 0 reaches everyone; from 1, nothing.
    let g = gen::star(16);
    let got = run(&g, 2, Policy::EdgeCutBlocked, LayerKind::Lci, Bfs { source: 1 });
    assert_eq!(got[1], 0);
    for v in [0usize, 2, 3, 15] {
        if v != 1 {
            assert_eq!(got[v], u32::MAX, "vertex {v} should be unreachable");
        }
    }
}

#[test]
fn many_hosts_odd_count() {
    let g = gen::rmat(8, 6, 21);
    let expect = reference::cc(&g);
    let got = run(&g, 7, Policy::VertexCutHash, LayerKind::Lci, Cc);
    assert_eq!(got, expect);
}

#[test]
fn metrics_are_recorded() {
    let g = gen::rmat(7, 4, 2);
    let parts = partition(&g, 2, Policy::EdgeCutBlocked);
    let (layers, _world) = build_layers(
        LayerKind::Lci,
        FabricConfig::test(2),
        mini_mpi::MpiConfig::default(),
        lci::LciConfig::for_hosts(2),
    );
    let result = run_app(
        &parts,
        Arc::new(Bfs { source: 0 }),
        &layers,
        &EngineConfig::default(),
    );
    assert!(result.rounds > 0);
    for h in &result.hosts {
        assert_eq!(h.metrics.num_rounds(), result.rounds);
        assert!(h.metrics.rounds.iter().any(|r| r.sent_bytes > 0));
    }
}

#[test]
fn rma_memory_dwarfs_lci_memory() {
    // The Fig. 5 effect in miniature: MPI-RMA pre-allocates worst-case
    // windows; LCI's transient buffers peak far lower.
    let g = gen::rmat(9, 8, 13);
    let parts = partition(&g, 4, Policy::VertexCutCartesian);
    let mk = |kind| {
        let (layers, _world) = build_layers(
            kind,
            FabricConfig::test(4),
            mini_mpi::MpiConfig::default()
                .with_personality(mini_mpi::Personality::zero()),
            lci::LciConfig::for_hosts(4),
        );
        let r = run_app(
            &parts,
            Arc::new(Bfs { source: 0 }),
            &layers,
            &EngineConfig::default(),
        );
        (r.mem_peak_min(), r.mem_peak_max(), _world)
    };
    let (_, lci_max, _w1) = mk(LayerKind::Lci);
    let (rma_min, _, _w2) = mk(LayerKind::MpiRma);
    assert!(
        rma_min as f64 > 1.5 * lci_max as f64,
        "RMA min peak {rma_min} should dwarf LCI max peak {lci_max}"
    );
}

/// One writer per host, one peer: the adds fold in one order, so two runs
/// repeat each other's bits.
#[test]
fn pagerank_runs_repeat_bit_for_bit() {
    let parts = partition(&gen::rmat(9, 8, 17), 2, Policy::VertexCutCartesian);
    let bits = || {
        let (layers, _world) = build_layers(
            LayerKind::Lci,
            FabricConfig::test(2),
            mini_mpi::MpiConfig::default(),
            lci::LciConfig::for_hosts(2),
        );
        let r = run_app(&parts, Arc::new(PageRank::default()), &layers, &EngineConfig::default());
        r.values.into_iter().map(f32::to_bits)
    };
    assert!(bits().eq(bits()), "two single-threaded runs differ");
}

// ---- same answers, same rounds: pinned at the last commit that ended every
// ---- round with a control all-reduce (PR 16) ---------------------------------

/// FNV-1a over the values' wire bytes: moves if any bit of any answer does.
fn values_hash<L: abelian::Label>(values: &[L]) -> u64 {
    let mut bytes = Vec::new();
    values.iter().for_each(|v| v.write(&mut bytes));
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `(rounds, Σ sent_entries over hosts and rounds, values_hash)` as recorded;
/// no hash where the bits are not a function of the code.
type Pin = (usize, u64, Option<u64>);

/// `(rounds, Σ sent_entries over hosts and rounds, values_hash)` of `app` on
/// three hosts over LCI.
fn observe<A: App>(g: &CsrGraph, policy: Policy, app: A) -> (usize, u64, u64) {
    let parts = partition(g, 3, policy);
    let (layers, _world) = build_layers(
        LayerKind::Lci,
        FabricConfig::test(3),
        mini_mpi::MpiConfig::default(),
        lci::LciConfig::for_hosts(3),
    );
    let r = run_app(&parts, Arc::new(app), &layers, &EngineConfig::default());
    let entries = r.hosts.iter().flat_map(|h| &h.metrics.rounds).map(|m| m.sent_entries).sum();
    (r.rounds, entries, values_hash(&r.values))
}

/// The graphs the pins were recorded on, with the source the sourced apps
/// use: a small weighted rmat, and a *descending* path (the frontier travels
/// against the ascending fire order, so it takes one round per hop).
fn golden_graphs() -> [(CsrGraph, u32); 2] {
    let n = 40u32;
    let hops: Vec<(u32, u32)> = (1..n).map(|i| (i, i - 1)).collect();
    [
        (gen::randomize_weights(&gen::rmat(7, 4, 0x601D), 10, 0x55), 0),
        (CsrGraph::from_edges(n as usize, &hops), n - 1),
    ]
}

/// Moving the termination vote into the next round's reduce changed when a
/// run learns it is over, not what it computes: every app runs the rounds,
/// sends the entries and reports the bits it did when each round ended with a
/// control all-reduce. The one hash not pinned is PageRank's on the rmat —
/// with three hosts its float sums fold in arrival order, so the bits differ
/// from run to run (at the parent too; `pagerank_close_to_reference_all_layers`
/// bounds them) while rounds and entries do not.
#[test]
fn rounds_entries_and_values_are_the_control_exchange_engines() {
    use abelian::apps::MultiSourceReach;
    // Per graph, per policy, apps in the order run below.
    let pinned: [[[Pin; 6]; 2]; 2] = [
        [
            [
                (4, 85, Some(1486777556585046100)),
                (4, 103, Some(186102878921650271)),
                (3, 172, Some(14600793250840921602)),
                (23, 1363, None),
                (5, 126, Some(7257646108541269479)),
                (4, 177, Some(3108423098834151621)),
            ],
            [
                (4, 151, Some(1486777556585046100)),
                (4, 184, Some(186102878921650271)),
                (3, 233, Some(14600793250840921602)),
                (20, 2714, None),
                (5, 190, Some(7257646108541269479)),
                (5, 341, Some(3108423098834151621)),
            ],
        ],
        // A blocked path has two host boundaries however it is cut.
        [[
            (40, 2, Some(3839218244705206053)),
            (40, 2, Some(3839218244705206053)),
            (1, 2, Some(17730087810143058725)),
            (39, 38, Some(5708566918114248096)),
            (40, 2, Some(13902953559477976880)),
            (40, 3, Some(7623125984557940133)),
        ]; 2],
    ];
    for ((g, src), per_policy) in golden_graphs().iter().zip(pinned) {
        let policies = [Policy::VertexCutCartesian, Policy::EdgeCutBlocked];
        for (policy, want) in policies.into_iter().zip(per_policy) {
            let got = [
                observe(g, policy, Bfs { source: *src }),
                observe(g, policy, Sssp { source: *src }),
                observe(g, policy, Cc),
                observe(g, policy, PageRank::default()),
                observe(g, policy, WidestPath { source: *src }),
                observe(g, policy, MultiSourceReach { sources: vec![*src, 3, 17] }),
            ];
            for (app, (got, want)) in got.into_iter().zip(want).enumerate() {
                let (n, policy) = (g.num_vertices(), policy.name());
                let what = format!("app #{app} on {n} vertices, {policy}");
                assert_eq!((got.0, got.1), (want.0, want.1), "rounds, entries: {what}");
                assert_eq!(want.2.unwrap_or(got.2), got.2, "value bits: {what}");
            }
        }
    }
}

/// `(rounds, messages the engine handed LCI)` for `app` on an edge cut of a
/// small rmat, two hosts: every exchange there is one message each way.
fn rounds_and_messages<A: App>(app: A) -> (usize, u64) {
    let g = gen::rmat(6, 4, 0xCA9);
    let parts = partition(&g, 2, Policy::EdgeCutBlocked);
    let (layers, world) = build_layers(
        LayerKind::Lci,
        FabricConfig::test(2),
        mini_mpi::MpiConfig::default(),
        lci::LciConfig::for_hosts(2),
    );
    let r = run_app(&parts, Arc::new(app), &layers, &EngineConfig::default());
    let abelian::LayerWorld::Lci(world) = world else { unreachable!("built for LCI") };
    let stats = world.devices().into_iter().map(|d| d.stats());
    (r.rounds, stats.map(|s| s.egr_sent + s.rdv_opened).sum())
}

/// The two corners the lagged vote adds. A run that reaches its fixpoint
/// learns so from one exchange more than it has rounds (the probe); a fresh
/// run with nothing to do still reports round 0, as it always has; and a run
/// that stops at its app's round cap decides that locally — no probe.
#[test]
fn probe_follows_a_fixpoint_and_never_a_round_cap() {
    let (rounds, messages) = rounds_and_messages(Bfs { source: 0 });
    assert!(rounds > 1, "bfs from 0 must take a few rounds, took {rounds}");
    assert_eq!(messages, 2 * (rounds as u64 + 1), "fixpoint: rounds + the probe");

    // No source in the graph: nothing is active initially.
    let (rounds, messages) = rounds_and_messages(Bfs { source: u32::MAX });
    assert_eq!((rounds, messages), (1, 4), "round 0 always runs, then the probe");

    let capped = PageRank { max_iters: 3, ..PageRank::default() };
    let (rounds, messages) = rounds_and_messages(capped);
    assert_eq!((rounds, messages), (3, 6), "a capped run exchanges once per round");
}

// ---- the phases a round runs are the ones its partition can fill ----------

/// A host's layer with a tally: which channels the engine registered, and how
/// many messages it sent on each.
struct Tally {
    inner: Arc<dyn CommLayer>,
    registered: Mutex<Vec<usize>>,
    sent: Mutex<[u64; 2]>,
}

impl CommLayer for Tally {
    fn rank(&self) -> u16 {
        self.inner.rank()
    }
    fn num_hosts(&self) -> usize {
        self.inner.num_hosts()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn membook(&self) -> Arc<abelian::MemBook> {
        self.inner.membook()
    }
    fn counters(&self) -> &Registry {
        self.inner.counters()
    }
    fn register_channel(&self, channel: usize, spec: ChannelSpec) {
        self.registered.lock().unwrap().push(channel);
        self.inner.register_channel(channel, spec)
    }
    fn begin(&self, channel: usize) {
        self.inner.begin(channel)
    }
    fn send(&self, channel: usize, dst: u16, data: Vec<u8>) {
        self.sent.lock().unwrap()[channel] += 1;
        self.inner.send(channel, dst, data)
    }
    fn finish_sends(&self, channel: usize) {
        self.inner.finish_sends(channel)
    }
    fn drain(&self, channel: usize, on_msg: &mut dyn FnMut(u16, &[u8])) -> usize {
        self.inner.drain(channel, on_msg)
    }
    fn sends_complete(&self) -> bool {
        self.inner.sends_complete()
    }
    fn failure(&self) -> Option<String> {
        self.inner.failure()
    }
    fn ping(&self, peer: u16) {
        self.inner.ping(peer)
    }
    fn quiesce(&self) {
        self.inner.quiesce()
    }
}

/// `app`'s values on `parts` over `kind`, asserting on the way that the run
/// was broadcast-only: every host registered and sent on `BROADCAST` alone,
/// and its table holds broadcast time and no reduce time.
fn broadcast_only<A: App>(parts: &Partitioning, kind: LayerKind, app: A) -> Vec<A::Acc> {
    let hosts = parts.parts.len();
    let (layers, _world) = build_layers(
        kind,
        FabricConfig::test(hosts),
        mini_mpi::MpiConfig::default().with_personality(mini_mpi::Personality::zero()),
        lci::LciConfig::for_hosts(hosts),
    );
    let tally = |inner| Tally { inner, registered: Mutex::default(), sent: Mutex::default() };
    let tallies: Vec<Arc<Tally>> = layers.into_iter().map(|l| Arc::new(tally(l))).collect();
    let dyn_layers: Vec<Arc<dyn CommLayer>> =
        tallies.iter().map(|t| Arc::clone(t) as Arc<dyn CommLayer>).collect();
    let r = run_app(parts, Arc::new(app), &dyn_layers, &EngineConfig::default());
    for (h, t) in tallies.iter().enumerate() {
        let how = format!("{}, host {h} of {hosts}", kind.name());
        assert_eq!(*t.registered.lock().unwrap(), [channels::BROADCAST], "{how}");
        let sent = *t.sent.lock().unwrap();
        assert_eq!(sent[channels::REDUCE], 0, "{how}: REDUCE messages");
        // One frame a peer a round, and one more for the probe.
        let rounds = r.hosts[h].metrics.num_rounds() as u64;
        assert_eq!(sent[channels::BROADCAST], (hosts as u64 - 1) * (rounds + 1), "{how}");
        let table = t.counters();
        assert_eq!(table.get(Counter::PhaseReduceNs), 0, "{how}");
        assert!(table.get(Counter::PhaseBroadcastNs) > 0, "{how}");
    }
    r.values
}

/// A Cartesian cut with one grid row (two and three hosts) is an
/// incoming-edge cut: every edge lives with its destination's owner, so no
/// mirror has a local in-edge and a reduce would carry nothing but the vote.
/// The round runs the broadcast alone with the vote aboard, and all six apps
/// still match their references on every layer.
#[test]
fn an_incoming_edge_cut_broadcasts_alone_and_matches_the_references() {
    use abelian::apps::MultiSourceReach;
    let g = gen::randomize_weights(&gen::rmat(8, 6, 31), 10, 7);
    let sources = vec![0, 17, 99];
    for hosts in [2, 3] {
        let parts = partition(&g, hosts, Policy::VertexCutCartesian);
        assert!(!parts.mirror_in_edges && parts.mirror_out_edges, "{hosts} hosts");
        for kind in LayerKind::all() {
            let how = format!("{} on {hosts} hosts", kind.name());
            let run = |app| broadcast_only(&parts, kind, app);
            assert_eq!(run(Bfs { source: 0 }), reference::bfs(&g, 0), "bfs, {how}");
            let sssp = broadcast_only(&parts, kind, Sssp { source: 0 });
            assert_eq!(sssp, reference::sssp(&g, 0), "sssp, {how}");
            assert_eq!(broadcast_only(&parts, kind, Cc), reference::cc(&g), "cc, {how}");
            let widest = broadcast_only(&parts, kind, WidestPath { source: 0 });
            assert_eq!(widest, reference::widest_path(&g, 0), "widest, {how}");
            let reach = MultiSourceReach { sources: sources.clone() };
            let reach = broadcast_only(&parts, kind, reach);
            assert_eq!(reach, reference::multi_source_reach(&g, &sources), "reach, {how}");
            let ranks = broadcast_only(&parts, kind, PageRank::default());
            let pr = PageRank::default();
            let expect = reference::pagerank(&g, pr.alpha, pr.tolerance, pr.max_iters);
            assert_ranks_close(&ranks, &expect, &how);
        }
    }
}

/// The Fig. 5 footprint is a function of the inputs, not of the timing: a
/// host leaves a round only once its own sends of that round are complete,
/// so a rendezvous send of one round is never on a host's book beside the
/// next round's. Five PageRank runs over LCI on two hosts, whose broadcast
/// frames take the rendezvous path, report the same peak.
#[test]
fn pagerank_footprint_is_the_same_every_run() {
    let parts = partition(&gen::rmat(13, 16, 5), 2, Policy::VertexCutCartesian);
    let peak = || {
        let (layers, world) = build_layers(
            LayerKind::Lci,
            FabricConfig::test(2),
            mini_mpi::MpiConfig::default(),
            lci::LciConfig::for_hosts(2),
        );
        let r = run_app(&parts, Arc::new(PageRank::default()), &layers, &EngineConfig::default());
        let abelian::LayerWorld::Lci(world) = world else { unreachable!("built for LCI") };
        let rdv: u64 = world.devices().into_iter().map(|d| d.stats().rdv_opened).sum();
        assert!(rdv > 0, "the frames must take the rendezvous path");
        r.mem_peak_max()
    };
    let first = peak();
    for run in 1..5 {
        assert_eq!(peak(), first, "run {run} of 5");
    }
}
