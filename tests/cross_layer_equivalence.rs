//! Property-based cross-layer equivalence: for random graphs, host counts,
//! policies and sources, all three communication layers must produce
//! identical results — the comm layer may change *performance*, never
//! *answers*.
//!
//! The chaos half of the suite re-runs the same properties with a seeded
//! [`FaultPlan`] on the fabric: latency spikes, adaptive-routing reorder and
//! injection brownouts are all *timing* perturbations, so a correct runtime
//! must still produce bit-identical answers under them. `RnrStorm` is
//! deliberately excluded here — with a finite RNR retry limit it is designed
//! to kill an MPI-style runtime (`tests/stress.rs` covers that contrast),
//! and equivalence requires all three layers to finish.

use abelian::apps::{reference, Bfs, Cc, Sssp};
use abelian::{build_layers, run_app, EngineConfig, LayerKind};
use lci_fabric::{FabricConfig, Fault, FaultPlan};
use lci_graph::{gen, partition, CsrGraph, Policy};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (5u32..9, 2usize..8, any::<u64>()).prop_map(|(scale, ef, seed)| {
        gen::randomize_weights(&gen::rmat(scale, ef, seed), 10, seed ^ 0x55)
    })
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::EdgeCutBlocked),
        Just(Policy::VertexCutCartesian),
        Just(Policy::VertexCutHash),
    ]
}

fn run_layer<A: abelian::apps::App>(
    parts: &lci_graph::Partitioning,
    kind: LayerKind,
    app: A,
) -> Vec<A::Acc> {
    let hosts = parts.parts.len();
    let (layers, _world) = build_layers(
        kind,
        FabricConfig::test(hosts),
        mini_mpi::MpiConfig::default()
            .with_personality(mini_mpi::Personality::zero()),
        lci::LciConfig::for_hosts(hosts),
    );
    run_app(parts, Arc::new(app), &layers, &EngineConfig::default()).values
}

/// Build a fault plan from a 16-way selector (`1..16`, so at least one
/// fault is always active) plus a seed that steers the knobs. Every phase
/// starts at t=0 and outlives the run: threaded fabrics judge phases
/// against the wall clock, so a finite window would race the workload when
/// the suite runs in parallel on a loaded machine. Bit 3 adds genuine
/// packet loss (1–5%), so the matrix also covers retransmission combined
/// with reorder (selective-ack pressure) and brownout (retry budget vs
/// back-pressure).
fn chaos_plan(selector: u64, knobs: u64) -> FaultPlan {
    const WHOLE_RUN: u64 = u64::MAX / 2;
    let mut plan = FaultPlan::none();
    if selector & 1 != 0 {
        plan = plan.with_phase(
            0,
            WHOLE_RUN,
            Fault::LatencySpike {
                extra_ns: 5_000 + knobs % 20_000,
                jitter_ns: 1 + (knobs >> 16) % 20_000,
            },
        );
    }
    if selector & 2 != 0 {
        plan = plan.with_phase(
            0,
            WHOLE_RUN,
            Fault::Reorder {
                window: 2 + ((knobs >> 32) % 6) as usize,
            },
        );
    }
    if selector & 4 != 0 {
        plan = plan.with_phase(
            0,
            WHOLE_RUN,
            Fault::Brownout {
                max_inflight: 1 + ((knobs >> 48) % 4) as usize,
            },
        );
    }
    if selector & 8 != 0 {
        plan = plan.with_phase(
            0,
            WHOLE_RUN,
            Fault::Drop {
                prob_ppm: 10_000 + ((knobs >> 8) % 40_001) as u32,
            },
        );
    }
    plan
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (1u64..16, any::<u64>()).prop_map(|(sel, knobs)| chaos_plan(sel, knobs))
}

/// [`run_layer`], but with a seeded chaos plan installed on the fabric.
fn run_layer_chaos<A: abelian::apps::App>(
    parts: &lci_graph::Partitioning,
    kind: LayerKind,
    app: A,
    seed: u64,
    plan: &FaultPlan,
) -> Vec<A::Acc> {
    let hosts = parts.parts.len();
    let (layers, _world) = build_layers(
        kind,
        FabricConfig::test(hosts)
            .with_seed(seed)
            .with_fault_plan(plan.clone()),
        mini_mpi::MpiConfig::default()
            .with_personality(mini_mpi::Personality::zero()),
        lci::LciConfig::for_hosts(hosts),
    );
    run_app(parts, Arc::new(app), &layers, &EngineConfig::default()).values
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    #[test]
    fn bfs_equivalent_across_layers(
        g in arb_graph(),
        hosts in 2usize..5,
        policy in arb_policy(),
        source_sel in any::<u32>(),
    ) {
        let source = source_sel % g.num_vertices() as u32;
        let parts = partition(&g, hosts, policy);
        parts.validate(&g);
        let expect = reference::bfs(&g, source);
        for kind in LayerKind::all() {
            let got = run_layer(&parts, kind, Bfs { source });
            prop_assert_eq!(&got, &expect, "layer {} policy {:?}", kind.name(), policy);
        }
    }

    #[test]
    fn cc_equivalent_across_layers(
        g in arb_graph(),
        hosts in 2usize..5,
        policy in arb_policy(),
    ) {
        let parts = partition(&g, hosts, policy);
        let expect = reference::cc(&g);
        for kind in LayerKind::all() {
            let got = run_layer(&parts, kind, Cc);
            prop_assert_eq!(&got, &expect, "layer {} policy {:?}", kind.name(), policy);
        }
    }

    #[test]
    fn sssp_equivalent_across_layers(
        g in arb_graph(),
        hosts in 2usize..4,
        source_sel in any::<u32>(),
    ) {
        let source = source_sel % g.num_vertices() as u32;
        let parts = partition(&g, hosts, Policy::VertexCutCartesian);
        let expect = reference::sssp(&g, source);
        for kind in LayerKind::all() {
            let got = run_layer(&parts, kind, Sssp { source });
            prop_assert_eq!(&got, &expect, "layer {}", kind.name());
        }
    }

    #[test]
    fn bfs_equivalent_under_chaos(
        g in arb_graph(),
        hosts in 2usize..4,
        policy in arb_policy(),
        source_sel in any::<u32>(),
        plan in arb_fault_plan(),
        seed in any::<u64>(),
    ) {
        let source = source_sel % g.num_vertices() as u32;
        let parts = partition(&g, hosts, policy);
        let expect = reference::bfs(&g, source);
        for kind in LayerKind::all() {
            let got = run_layer_chaos(&parts, kind, Bfs { source }, seed, &plan);
            prop_assert_eq!(
                &got, &expect,
                "layer {} policy {:?} seed {} plan {:?}",
                kind.name(), policy, seed, plan
            );
        }
    }

    #[test]
    fn cc_equivalent_under_chaos(
        g in arb_graph(),
        hosts in 2usize..4,
        plan in arb_fault_plan(),
        seed in any::<u64>(),
    ) {
        let parts = partition(&g, hosts, Policy::VertexCutHash);
        let expect = reference::cc(&g);
        for kind in LayerKind::all() {
            let got = run_layer_chaos(&parts, kind, Cc, seed, &plan);
            prop_assert_eq!(
                &got, &expect,
                "layer {} seed {} plan {:?}", kind.name(), seed, plan
            );
        }
    }
}

/// The crash-stop corner of the matrix: a seeded mid-run crash of one host —
/// alone, and combined with packet loss and wire corruption — must not change
/// answers on any layer once coordinated checkpoint/restart recovery re-runs
/// the aborted rounds. BFS on a *descending* path pins the frontier to one
/// hop per round (the engines' ascending in-round sweep cannot shortcut it),
/// so the packet-count trigger reliably fires mid-run, after checkpoints
/// exist. The trigger is three fifths of the deliveries the crash host takes
/// part in during a crash-free twin of the same seed and layer (as its own
/// endpoint counts them; puts landing on it are left out, so over MPI-RMA
/// the share is smaller): a round is one exchange here (edge cut, no control
/// exchange), the first checkpoint is behind a tenth of the run's packets on
/// every layer, and the crash lands near round 25 of 40 on LCI and
/// MPI-Probe and no later over MPI-RMA. Equality is against the same
/// crash-free reference as everywhere else in this suite: recovery may cost
/// time, never answers.
#[test]
fn bfs_equivalent_with_crash_recovery_under_combined_faults() {
    use abelian::{run_app_recoverable, CheckpointStore, RecoveryConfig, RecoveryWorld};
    use std::sync::mpsc;
    use std::time::Duration;
    const WHOLE_RUN: u64 = u64::MAX / 2;
    /// A run takes well under a second; one that has not returned after
    /// this long is wedged, and the test fails naming it instead of hanging
    /// the suite.
    const RUN_LIMIT: Duration = Duration::from_secs(60);
    const N: usize = 40;
    const HOSTS: usize = 3;
    let graph = || {
        let edges: Vec<(lci_graph::Vid, lci_graph::Vid)> = (1..N)
            .map(|i| (i as lci_graph::Vid, i as lci_graph::Vid - 1))
            .collect();
        CsrGraph::from_edges(N, &edges)
    };
    let source = N as u32 - 1;
    let expect = reference::bfs(&graph(), source);
    // One recoverable run on a thread of its own, so a wedged run cannot
    // outlive `RUN_LIMIT`. Returns the run's answer, the deliveries the
    // crash host took part in (as its own endpoint counts them) and whether
    // its crash fired.
    let run = |kind: LayerKind, seed: u64, plan: FaultPlan, what: String| {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let g = graph();
            let parts = partition(&g, HOSTS, Policy::EdgeCutBlocked);
            parts.validate(&g);
            let store = CheckpointStore::new(HOSTS);
            let mut rw = RecoveryWorld::new(
                kind,
                FabricConfig::test(HOSTS).with_seed(seed).with_fault_plan(plan),
                mini_mpi::MpiConfig::default().with_personality(mini_mpi::Personality::zero()),
                lci::LciConfig::for_hosts(HOSTS),
            );
            let r = run_app_recoverable(
                &parts,
                Arc::new(Bfs { source }),
                &mut rw,
                &EngineConfig::default(),
                &RecoveryConfig {
                    ckpt_every: 4,
                    max_attempts: 4,
                },
                &store,
            );
            let st = rw.fabric().endpoint(1).stats();
            let _ = tx.send((
                r.map(|r| r.values),
                st.sends + st.recvs + st.puts,
                st.fault_crashed > 0,
            ));
        });
        rx.recv_timeout(RUN_LIMIT)
            .unwrap_or_else(|_| panic!("{what}: no answer after {RUN_LIMIT:?}"))
    };
    // Selector bit 1 adds Drop, bit 2 adds Corrupt; the crash is always on.
    for selector in 0u64..4 {
        let seed = 0xC4A5 + selector;
        for kind in LayerKind::all() {
            let twin_what = format!("layer {} crash-free twin", kind.name());
            let (twin, twin_packets, _) = run(kind, seed, FaultPlan::none(), twin_what.clone());
            twin.unwrap_or_else(|e| panic!("{twin_what}: {e}"));
            let after_packets = twin_packets * 3 / 5;
            let mut plan =
                FaultPlan::none().with_phase(0, WHOLE_RUN, Fault::Crash { host: 1, after_packets });
            if selector & 1 != 0 {
                plan = plan.with_phase(0, WHOLE_RUN, Fault::Drop { prob_ppm: 20_000 });
            }
            if selector & 2 != 0 {
                plan = plan.with_phase(0, WHOLE_RUN, Fault::Corrupt { flips: 3 });
            }
            let what = format!("layer {} selector {selector}", kind.name());
            let (r, packets, crashed) = run(kind, seed, plan.clone(), what.clone());
            let values = r.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(values, expect, "{what} plan {plan:?}");
            assert!(
                crashed,
                "{what}: crash never fired (twin party_packets {twin_packets}, trigger \
                 {after_packets}, this run's party_packets {packets})",
            );
        }
    }
}

/// A fixed (non-proptest) chaos matrix, so `--test cross_layer_equivalence`
/// exercises every fault combination deterministically on every CI run —
/// proptest's 8 random cases may not cover all selectors. SSSP's f64
/// min-reduce is order-insensitive, so equality is exact even under reorder.
#[test]
fn sssp_equivalent_under_every_fault_combination() {
    let g = gen::randomize_weights(&gen::rmat(6, 4, 0xFA11), 10, 0xFA11 ^ 0x55);
    let source = 1 % g.num_vertices() as u32;
    let parts = partition(&g, 3, Policy::VertexCutCartesian);
    parts.validate(&g);
    let expect = reference::sssp(&g, source);
    for selector in 1u64..16 {
        let plan = chaos_plan(selector, 0x0003_0002_0000_1000);
        for kind in LayerKind::all() {
            let got = run_layer_chaos(&parts, kind, Sssp { source }, 0xFA11 + selector, &plan);
            assert_eq!(
                got,
                expect,
                "layer {} selector {selector} plan {plan:?}",
                kind.name()
            );
        }
    }
}
