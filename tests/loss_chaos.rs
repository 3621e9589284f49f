//! Reliable delivery under real packet loss.
//!
//! Two halves, mirroring the two lossy faults:
//!
//! * **Whole-run probabilistic loss** ([`Fault::Drop`], 5% = 50 000 ppm):
//!   the wire genuinely eats packets (senders still see `SendDone`), so only
//!   the ack/retransmit sublayer stands between the runtimes and silent data
//!   loss. Every communication layer and both engines must still produce
//!   answers bit-identical to the sequential reference, and the runs must
//!   show non-zero `fabric.fault.dropped` *and* `fabric.reliable.retransmits`
//!   — proof the wire really lost traffic and recovery really happened,
//!   not that the fault phase was a no-op.
//! * **Whole-run single-host partition** ([`Fault::Blackhole`]): no amount
//!   of retransmission recovers, so the retry budget must exhaust, the
//!   transport must declare the peer dead, and both engines must abort in
//!   bounded time with a descriptive `Err` instead of wedging in a barrier
//!   that can never complete.

use abelian::apps::{reference, Bfs, Cc};
use abelian::{build_layers, run_app_checked, EngineConfig, LayerKind};
use gemini::{run_gemini_checked, GeminiConfig};
use lci_fabric::{FabricConfig, Fault, FaultPlan};
use lci_graph::{gen, partition, Policy};
use lci_trace::Counter;
use std::sync::Arc;

/// Phases start at t=0 and outlive the run: threaded fabrics judge phases
/// against the wall clock, so a finite window would race the workload.
const WHOLE_RUN: u64 = u64::MAX / 2;

/// 5% per-packet loss, the suite's standard "real loss" rate.
const LOSS_PPM: u32 = 50_000;

/// Per-process fabric seed base — `FABRIC_SEED` env var or a fixed default
/// — XORed with a per-test salt. The `run_tests.sh` loss leg sweeps this
/// across a seed matrix; each value is a distinct, exactly replayable loss
/// schedule (`FABRIC_SEED=<s> cargo test --test loss_chaos`).
fn fabric_seed(salt: u64) -> u64 {
    std::env::var("FABRIC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
        ^ salt
}

fn lossy_plan() -> FaultPlan {
    FaultPlan::none().with_phase(0, WHOLE_RUN, Fault::Drop { prob_ppm: LOSS_PPM })
}

fn blackhole_plan(peer: u16) -> FaultPlan {
    FaultPlan::none().with_phase(0, WHOLE_RUN, Fault::Blackhole { peer })
}

/// Returns the world alongside the layers: dropping it closes the fabric,
/// so it must outlive the run.
fn layers_with_plan(
    kind: LayerKind,
    hosts: usize,
    seed: u64,
    plan: FaultPlan,
) -> (Vec<Arc<dyn abelian::CommLayer>>, abelian::LayerWorld) {
    build_layers(
        kind,
        FabricConfig::test(hosts).with_seed(seed).with_fault_plan(plan),
        mini_mpi::MpiConfig::default().with_personality(mini_mpi::Personality::zero()),
        lci::LciConfig::for_hosts(hosts),
    )
}

// ---- whole-run loss: bit-identical answers -----------------------------

#[test]
fn abelian_bfs_bit_identical_under_whole_run_loss() {
    let g = gen::randomize_weights(&gen::rmat(6, 4, 0x1055), 10, 0x1055 ^ 0x55);
    let parts = partition(&g, 3, Policy::VertexCutCartesian);
    let expect = reference::bfs(&g, 0);
    let before = lci_trace::global().snapshot();
    for kind in LayerKind::all() {
        let (layers, _world) = layers_with_plan(kind, 3, fabric_seed(0xBEEF ^ kind as u64), lossy_plan());
        let r = run_app_checked(
            &parts,
            Arc::new(Bfs { source: 0 }),
            &layers,
            &EngineConfig::default(),
        )
        .unwrap_or_else(|e| panic!("layer {} must recover from 5% loss: {e}", kind.name()));
        assert_eq!(r.values, expect, "layer {} under 5% loss", kind.name());
    }
    let d = lci_trace::global().snapshot().delta(&before);
    assert!(
        d.get(Counter::FabricFaultDropped) > 0,
        "the wire must genuinely drop packets at 5% loss"
    );
    assert!(
        d.get(Counter::FabricReliableRetransmits) > 0,
        "recovery must happen via retransmission, not luck"
    );
}

#[test]
fn gemini_cc_bit_identical_under_whole_run_loss() {
    let g = gen::rmat(6, 4, 0x2CC2);
    let parts = partition(&g, 3, Policy::EdgeCutBlocked);
    let expect = reference::cc(&g);
    let before = lci_trace::global().snapshot();
    for kind in LayerKind::all() {
        let (layers, _world) = layers_with_plan(kind, 3, fabric_seed(0xD00D ^ kind as u64), lossy_plan());
        let r = run_gemini_checked(&parts, Arc::new(Cc), &layers, &GeminiConfig::default())
            .unwrap_or_else(|e| {
                panic!("layer {} must recover from 5% loss: {e}", kind.name())
            });
        assert_eq!(r.values, expect, "layer {} under 5% loss", kind.name());
    }
    let d = lci_trace::global().snapshot().delta(&before);
    assert!(d.get(Counter::FabricFaultDropped) > 0);
    assert!(d.get(Counter::FabricReliableRetransmits) > 0);
}

// ---- blackhole: bounded-time peer-death abort ---------------------------

#[test]
fn abelian_blackhole_aborts_bounded_on_every_layer() {
    let g = gen::rmat(6, 4, 0xB1AC);
    let parts = partition(&g, 3, Policy::VertexCutCartesian);
    for kind in LayerKind::all() {
        let (layers, _world) = layers_with_plan(kind, 3, fabric_seed(0xFADE ^ kind as u64), blackhole_plan(1));
        let err = match run_app_checked(
            &parts,
            Arc::new(Bfs { source: 0 }),
            &layers,
            &EngineConfig::default(),
        ) {
            Ok(_) => panic!("layer {} must abort when host 1 is blackholed", kind.name()),
            Err(e) => e,
        };
        assert!(
            err.contains("unreachable") || err.contains("failed"),
            "layer {} abort must name the failure, got: {err}",
            kind.name()
        );
    }
}

#[test]
fn gemini_blackhole_aborts_bounded_on_every_layer() {
    let g = gen::rmat(6, 4, 0xB1AD);
    let parts = partition(&g, 3, Policy::EdgeCutBlocked);
    for kind in LayerKind::all() {
        let (layers, _world) = layers_with_plan(kind, 3, fabric_seed(0xACED ^ kind as u64), blackhole_plan(1));
        let cfg = GeminiConfig::default();
        let err = match run_gemini_checked(&parts, Arc::new(Cc), &layers, &cfg) {
            Ok(_) => panic!("layer {} must abort when host 1 is blackholed", kind.name()),
            Err(e) => e,
        };
        assert!(
            err.contains("unreachable") || err.contains("failed"),
            "layer {} abort must name the failure, got: {err}",
            kind.name()
        );
    }
}

/// Peer-death detection is counted: after the blackhole aborts, the
/// `fabric.reliable.peer_dead` counter must have fired at least once.
#[test]
fn blackhole_death_is_visible_in_trace_counters() {
    let g = gen::rmat(5, 4, 0xDEAD);
    let parts = partition(&g, 3, Policy::VertexCutCartesian);
    let before = lci_trace::global().snapshot();
    let (layers, _world) = layers_with_plan(LayerKind::Lci, 3, fabric_seed(0x0DDE), blackhole_plan(1));
    if run_app_checked(
        &parts,
        Arc::new(Bfs { source: 0 }),
        &layers,
        &EngineConfig::default(),
    )
    .is_ok()
    {
        panic!("blackhole must abort the run");
    }
    let d = lci_trace::global().snapshot().delta(&before);
    assert!(
        d.get(Counter::FabricReliablePeerDead) > 0,
        "peer death must be counted"
    );
    assert!(
        d.get(Counter::FabricFaultBlackholed) > 0,
        "blackholed deliveries must be counted"
    );
}
