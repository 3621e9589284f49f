//! Crash-stop failure and coordinated checkpoint/restart recovery.
//!
//! The contract under test (DESIGN.md "crash-stop threat model & recovery
//! protocol"):
//!
//! * A seeded mid-run [`Fault::Crash`] kills one host's wire presence at an
//!   exactly replayable point (`FABRIC_SEED=<s>` reproduces the schedule).
//! * With recovery enabled, the run **completes** — the crashed host is
//!   respawned under a bumped incarnation epoch, every host rolls back to
//!   the newest common checkpoint, and the final values are bit-identical
//!   to a crash-free run of the same seed — on all three communication
//!   layers and both engines.
//! * The recovery leaves counter evidence: `engine.ckpt.restores` proves a
//!   rollback actually restored saved state, `fabric.epoch.stale_dropped`
//!   proves frames of the dead incarnation were discarded by the epoch
//!   gate rather than replayed into fresh sequence spaces.
//! * With recovery *disabled*, a crash still yields the bounded clean
//!   abort of the loss-chaos suite: a descriptive `Err`, no wedge, even
//!   when the host dies owing unflushed acknowledgements.
//! * Both engines share one snapshot layout and one restore protocol: a
//!   checkpoint saved under either resumes under the other, crash or no
//!   crash.

use abelian::apps::{reference, Bfs};
use abelian::comm::{recv_round, PING_AFTER};
use abelian::{
    build_layers, run_app_checked, run_app_recoverable, run_app_with_ckpt, ChannelSpec,
    CheckpointStore, CkptPlan, EngineConfig, LayerKind, RecoveryConfig, RecoveryWorld, RunResult,
};
use gemini::{run_gemini_recoverable, run_gemini_with_ckpt, GeminiConfig};
use lci_fabric::{FabricConfig, Fault, FaultPlan};
use lci_graph::{gen, partition, Policy};
use lci_trace::Counter;
use std::sync::Arc;
use std::time::Instant;

/// Phases start at t=0 and outlive the run (threaded fabrics judge phases
/// against the wall clock).
const WHOLE_RUN: u64 = u64::MAX / 2;

/// Per-process fabric seed base — `FABRIC_SEED` env var or a fixed default
/// — XORed with a per-test salt, exactly as in the loss-chaos suite. Every
/// failure replays with `FABRIC_SEED=<s> cargo test --test crash_recovery`.
fn fabric_seed(salt: u64) -> u64 {
    std::env::var("FABRIC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
        ^ salt
}

fn crash_plan(host: u16, after_packets: u64) -> FaultPlan {
    FaultPlan::none().with_phase(0, WHOLE_RUN, Fault::Crash { host, after_packets })
}

fn fabric_cfg(hosts: usize, seed: u64, plan: FaultPlan) -> FabricConfig {
    FabricConfig::test(hosts).with_seed(seed).with_fault_plan(plan)
}

fn mpi_cfg() -> mini_mpi::MpiConfig {
    mini_mpi::MpiConfig::default().with_personality(mini_mpi::Personality::zero())
}

/// A long path keeps BFS busy for many rounds of light traffic, so a
/// packet-count crash trigger lands well past the early checkpoints and
/// well before the fixpoint — the interesting middle of the run.
const PATH_N: usize = 48;

/// A *descending* path `n-1 -> n-2 -> … -> 0`: the frontier travels against
/// the engines' ascending fire order, so the in-round sweep cannot shortcut
/// it and BFS from `n-1` genuinely takes ~n rounds (an ascending path
/// collapses to one round per host boundary).
fn descending_path(n: usize) -> lci_graph::CsrGraph {
    let edges: Vec<(lci_graph::Vid, lci_graph::Vid)> =
        (1..n).map(|i| (i as lci_graph::Vid, i as lci_graph::Vid - 1)).collect();
    lci_graph::CsrGraph::from_edges(n, &edges)
}
const HOSTS: usize = 4;
const CRASH_HOST: u16 = 1;
/// Packets involving the crash host before it dies. A round is one exchange
/// on an edge cut and two on the 2 × 2 Cartesian cut of four hosts (there is
/// no control exchange), so
/// the window this must fall in is set by the lightest and the heaviest run
/// below: Gemini over LCI or MPI-Probe finishes within 250–300 such packets
/// (the crash must still fire), and Abelian over MPI-RMA needs 100–150 of
/// them before every host holds its first checkpoint (recovery must have one
/// to roll back to). Measured with the default seed; 200 sits in the middle.
const CRASH_AFTER: u64 = 200;

// ---- tentpole: crash + recovery completes bit-identical ------------------

#[test]
fn abelian_bfs_crash_recovery_bit_identical_on_every_layer() {
    let g = descending_path(PATH_N);
    let parts = partition(&g, HOSTS, Policy::VertexCutCartesian);
    let src = (PATH_N - 1) as lci_graph::Vid;
    let expect = reference::bfs(&g, src);
    let rec = RecoveryConfig { ckpt_every: 4, max_attempts: 4 };
    let before = lci_trace::global().snapshot();
    for kind in LayerKind::all() {
        let seed = fabric_seed(0xCAFE ^ kind as u64);

        // Crash-free twin of the same seed: the bit-identical baseline.
        let mut rw = RecoveryWorld::new(
            kind,
            fabric_cfg(HOSTS, seed, FaultPlan::none()),
            mpi_cfg(),
            lci::LciConfig::for_hosts(HOSTS),
        );
        let store = CheckpointStore::new(HOSTS);
        let clean = run_app_recoverable(
            &parts,
            Arc::new(Bfs { source: src }),
            &mut rw,
            &EngineConfig::default(),
            &rec,
            &store,
        )
        .unwrap_or_else(|e| panic!("layer {} crash-free run failed: {e}", kind.name()));
        assert_eq!(clean.values, expect, "layer {} crash-free baseline", kind.name());

        let mut rw = RecoveryWorld::new(
            kind,
            fabric_cfg(HOSTS, seed, crash_plan(CRASH_HOST, CRASH_AFTER)),
            mpi_cfg(),
            lci::LciConfig::for_hosts(HOSTS),
        );
        let store = CheckpointStore::new(HOSTS);
        let r = run_app_recoverable(
            &parts,
            Arc::new(Bfs { source: src }),
            &mut rw,
            &EngineConfig::default(),
            &rec,
            &store,
        )
        .unwrap_or_else(|e| {
            panic!(
                "layer {} must recover from the crash (replay: FABRIC_SEED={seed}): {e}",
                kind.name()
            )
        });
        assert_eq!(
            r.values,
            clean.values,
            "layer {} recovered run must be bit-identical to the crash-free twin \
             (replay: FABRIC_SEED={seed})",
            kind.name()
        );
        // Per-fabric stats are immune to concurrently running tests: this
        // run's crash really fired, and a checkpoint really existed to
        // restore from (latest_common survives the run).
        let st = rw.fabric().endpoint(CRASH_HOST as usize).stats();
        assert!(
            st.fault_crashed > 0,
            "layer {}: the crash must actually fire (replay: FABRIC_SEED={seed})",
            kind.name()
        );
        assert!(
            store.latest_common().is_some(),
            "layer {}: recovery must have had a common checkpoint to roll back to \
             (replay: FABRIC_SEED={seed})",
            kind.name()
        );
    }
    let d = lci_trace::global().snapshot().delta(&before);
    assert!(
        d.get(Counter::EngineCkptSaves) > 0,
        "checkpoints must be saved during the runs"
    );
    assert!(
        d.get(Counter::EngineCkptRestores) > 0,
        "recovery must restore from a checkpoint, not merely re-run from scratch"
    );
    assert!(
        d.get(Counter::FabricEpochStaleDropped) > 0,
        "frames of the dead incarnation must be discarded by the epoch gate"
    );
}

#[test]
fn gemini_bfs_crash_recovery_bit_identical_on_every_layer() {
    let g = descending_path(PATH_N);
    let parts = partition(&g, HOSTS, Policy::EdgeCutBlocked);
    let src = (PATH_N - 1) as lci_graph::Vid;
    let expect = reference::bfs(&g, src);
    let rec = RecoveryConfig { ckpt_every: 4, max_attempts: 4 };
    let before = lci_trace::global().snapshot();
    for kind in LayerKind::all() {
        let seed = fabric_seed(0xFACE ^ kind as u64);

        let mut rw = RecoveryWorld::new(
            kind,
            fabric_cfg(HOSTS, seed, FaultPlan::none()),
            mpi_cfg(),
            lci::LciConfig::for_hosts(HOSTS),
        );
        let store = CheckpointStore::new(HOSTS);
        let clean = run_gemini_recoverable(
            &parts,
            Arc::new(Bfs { source: src }),
            &mut rw,
            &GeminiConfig::default(),
            &rec,
            &store,
        )
        .unwrap_or_else(|e| panic!("layer {} crash-free run failed: {e}", kind.name()));
        assert_eq!(clean.values, expect, "layer {} crash-free baseline", kind.name());

        let mut rw = RecoveryWorld::new(
            kind,
            fabric_cfg(HOSTS, seed, crash_plan(CRASH_HOST, CRASH_AFTER)),
            mpi_cfg(),
            lci::LciConfig::for_hosts(HOSTS),
        );
        let store = CheckpointStore::new(HOSTS);
        let r = run_gemini_recoverable(
            &parts,
            Arc::new(Bfs { source: src }),
            &mut rw,
            &GeminiConfig::default(),
            &rec,
            &store,
        )
        .unwrap_or_else(|e| {
            panic!(
                "layer {} must recover from the crash (replay: FABRIC_SEED={seed}): {e}",
                kind.name()
            )
        });
        assert_eq!(
            r.values,
            clean.values,
            "layer {} recovered run must be bit-identical to the crash-free twin \
             (replay: FABRIC_SEED={seed})",
            kind.name()
        );
        let st = rw.fabric().endpoint(CRASH_HOST as usize).stats();
        assert!(
            st.fault_crashed > 0,
            "layer {}: the crash must actually fire (replay: FABRIC_SEED={seed})",
            kind.name()
        );
        assert!(
            store.latest_common().is_some(),
            "layer {}: recovery must have had a common checkpoint to roll back to \
             (replay: FABRIC_SEED={seed})",
            kind.name()
        );
    }
    let d = lci_trace::global().snapshot().delta(&before);
    assert!(d.get(Counter::EngineCkptRestores) > 0, "rollback must restore state");
    assert!(
        d.get(Counter::FabricEpochStaleDropped) > 0,
        "frames of the dead incarnation must be discarded by the epoch gate"
    );
}

// ---- recovery disabled: the PR-4 bounded clean abort is preserved --------

#[test]
fn crash_without_recovery_aborts_bounded_on_every_layer() {
    let g = gen::rmat(6, 4, 0xC4A5);
    // One grid row: a round is one exchange, the broadcast. Host 1 is party
    // to 22–23 packets of a crash-free run over LCI or MPI-Probe and 43 over
    // MPI-RMA, so the crash lands mid-run on every layer.
    let parts = partition(&g, 3, Policy::VertexCutCartesian);
    for kind in LayerKind::all() {
        let seed = fabric_seed(0x0BAD ^ kind as u64);
        let (layers, _world) = build_layers(
            kind,
            fabric_cfg(3, seed, crash_plan(1, 15)),
            mpi_cfg(),
            lci::LciConfig::for_hosts(3),
        );
        let t0 = Instant::now();
        let err = match run_app_checked(
            &parts,
            Arc::new(Bfs { source: 0 }),
            &layers,
            &EngineConfig::default(),
        ) {
            Ok(_) => panic!(
                "layer {} must abort when host 1 crashes without recovery \
                 (replay: FABRIC_SEED={seed})",
                kind.name()
            ),
            Err(e) => e,
        };
        assert!(
            err.contains("unreachable") || err.contains("failed"),
            "layer {} abort must name the failure, got: {err}",
            kind.name()
        );
        assert!(
            t0.elapsed().as_secs() < 30,
            "layer {} abort must be bounded, took {:?}",
            kind.name(),
            t0.elapsed()
        );
    }
}

/// Satellite 6, the bug ruled out by construction: a host that crashes
/// *owing unflushed acknowledgements* must not wedge survivors. The
/// survivors' frames toward the dead host keep retransmitting into
/// silence until the retry budget (12 tries, RTO 400µs doubling to the
/// 8ms cap ≈ 76ms of backoff) declares the peer unreachable — so the
/// abort surfaces within a small multiple of that bound, crash-early
/// (the victim received frames it never acked) included.
#[test]
fn crashed_host_with_unflushed_ack_debt_cannot_wedge_survivors() {
    let g = gen::rmat(5, 4, 0xACDB);
    let parts = partition(&g, 3, Policy::VertexCutCartesian);
    let seed = fabric_seed(0xDEB7);
    let before = lci_trace::global().snapshot();
    // after_packets=3: host 1 dies right after its first receives, before
    // any ack debt it accumulated could flush.
    let (layers, _world) = build_layers(
        LayerKind::Lci,
        fabric_cfg(3, seed, crash_plan(1, 3)),
        mpi_cfg(),
        lci::LciConfig::for_hosts(3),
    );
    let t0 = Instant::now();
    let r = run_app_checked(
        &parts,
        Arc::new(Bfs { source: 0 }),
        &layers,
        &EngineConfig::default(),
    );
    let elapsed = t0.elapsed();
    assert!(r.is_err(), "crash without recovery must abort (replay: FABRIC_SEED={seed})");
    // Detection is ~76ms of retransmission backoff; allow a generous CI
    // multiplier, but far below anything resembling a wedge.
    assert!(
        elapsed.as_secs() < 10,
        "survivors must detect the dead peer in bounded time, took {elapsed:?}"
    );
    let d = lci_trace::global().snapshot().delta(&before);
    assert!(d.get(Counter::FabricFaultCrashed) > 0, "the crash must fire");
    assert!(
        d.get(Counter::FabricReliablePeerDead) > 0,
        "survivors must detect peer death via budget exhaustion"
    );
}

/// The survivor that owes the dead host nothing. Host 1 takes host 0's
/// message of a round, acknowledges it, and leaves the run without sending
/// its own; host 0 then has no frame toward it that a retry budget could
/// give up on. Its `recv_round` must still abort bounded, on every layer:
/// after `PING_AFTER` of silence it pings host 1, and the unanswered ping
/// declares host 1 unreachable. (This is the shape of the recovery
/// suite's wedge: the crash fires after the victim acknowledged every
/// survivor's round and before it sent its own.)
#[test]
fn survivor_waiting_on_a_peer_it_owes_nothing_aborts_bounded_on_every_layer() {
    for kind in LayerKind::all() {
        let seed = fabric_seed(0x51E7 ^ kind as u64);
        let (layers, world) = build_layers(
            kind,
            fabric_cfg(2, seed, FaultPlan::none()),
            mpi_cfg(),
            lci::LciConfig::for_hosts(2),
        );
        // Registration is collective and RMA's `begin` waits for the peer's
        // post, so each host opens the round on its own thread.
        let open = |rank: u16| {
            let layer = Arc::clone(&layers[rank as usize]);
            move || {
                layer.register_channel(0, ChannelSpec::uniform(2, rank, 64));
                layer.begin(0);
                layer
            }
        };
        let (open0, open1) = (open(0), open(1));
        let leaver = std::thread::spawn(move || {
            let l1 = open1();
            let got = loop {
                if let Some(m) = l1.try_recv(0) {
                    break Some(m);
                }
                if l1.failure().is_some() {
                    break None;
                }
                std::thread::yield_now();
            };
            l1.quiesce();
            got
        });
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let l0 = open0();
            l0.send(0, 1, vec![7; 8]);
            l0.finish_sends(0);
            let t0 = Instant::now();
            let r = recv_round(&*l0, 0, |_, _| true);
            let _ = tx.send((r, t0.elapsed()));
        });
        let got = leaver.join().expect("host 1");
        assert_eq!(
            got,
            Some((0, vec![7; 8])),
            "layer {}: host 1 takes host 0's message",
            kind.name()
        );
        let (r, waited) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("layer {}: host 0 waits on host 1 forever", kind.name()));
        let err = r.expect_err("the round cannot complete");
        assert!(
            err.contains("unreachable") || err.contains("failed"),
            "layer {} abort must name the failure, got: {err}",
            kind.name()
        );
        assert!(
            waited >= PING_AFTER && waited.as_secs() < 30,
            "layer {}: pinged after PING_AFTER and aborted bounded, took {waited:?}",
            kind.name()
        );
        drop(world);
    }
}

// ---- determinism: same seed, same crash point, same recovery -------------

/// Two identically seeded crash+recovery runs must agree on the recovery
/// evidence itself: same saved checkpoint rounds on every host. (Counter
/// *deltas* are compared in the trace_golden suite under a lock; here the
/// store contents give a parallel-test-safe determinism witness.)
#[test]
fn recovery_checkpoint_schedule_replays_from_seed() {
    let g = descending_path(32);
    // One grid row, one exchange a round: host 1 is party to 134 packets of
    // the crash-free run, so 100 lands near round 24 of 32.
    let parts = partition(&g, 3, Policy::VertexCutCartesian);
    let seed = fabric_seed(0x5EED);
    let rec = RecoveryConfig { ckpt_every: 3, max_attempts: 4 };
    let run = || {
        let mut rw = RecoveryWorld::new(
            LayerKind::Lci,
            fabric_cfg(3, seed, crash_plan(1, 100)),
            mpi_cfg(),
            lci::LciConfig::for_hosts(3),
        );
        let store = CheckpointStore::new(3);
        let r = run_app_recoverable(
            &parts,
            Arc::new(Bfs { source: 31 }),
            &mut rw,
            &EngineConfig::default(),
            &rec,
            &store,
        )
        .unwrap_or_else(|e| panic!("recovery must succeed (replay: FABRIC_SEED={seed}): {e}"));
        assert!(
            rw.fabric().endpoint(1).stats().fault_crashed > 0,
            "the crash must fire for the replay comparison to mean anything"
        );
        (r.values, store.latest_common())
    };
    let (v1, c1) = run();
    let (v2, c2) = run();
    assert_eq!(v1, v2, "same seed must yield bit-identical recovered values");
    assert_eq!(c1, c2, "same seed must yield the same final common checkpoint");
}

// ---- the shared restore path, without a crash ------------------------------

/// Both engines run the one round skeleton, so a checkpoint saved by either
/// must resume under the other: same snapshot layout, same restore
/// protocol. The resumed run lands on the reference result having executed
/// only the rounds after the restored boundary.
#[test]
fn checkpoint_saved_by_one_engine_resumes_on_the_other() {
    let g = descending_path(PATH_N);
    let parts = partition(&g, HOSTS, Policy::EdgeCutBlocked);
    let src = (PATH_N - 1) as lci_graph::Vid;
    let expect = reference::bfs(&g, src);
    // Every run gets fresh layers over a fresh fabric.
    let fresh_layers = || {
        build_layers(
            LayerKind::Lci,
            fabric_cfg(HOSTS, fabric_seed(0x2E5), FaultPlan::none()),
            mpi_cfg(),
            lci::LciConfig::for_hosts(HOSTS),
        )
    };
    type Run<'a> = &'a dyn Fn(&CkptPlan) -> Result<RunResult<u32>, String>;
    let abelian: Run = &|plan| {
        let (layers, _world) = fresh_layers();
        let app = Arc::new(Bfs { source: src });
        run_app_with_ckpt(&parts, app, &layers, &EngineConfig::default(), Some(plan))
    };
    let gemini: Run = &|plan| {
        let (layers, _world) = fresh_layers();
        let app = Arc::new(Bfs { source: src });
        run_gemini_with_ckpt(&parts, app, &layers, &GeminiConfig::default(), Some(plan))
    };
    for (saver, resumer, name) in
        [(abelian, gemini, "abelian -> gemini"), (gemini, abelian, "gemini -> abelian")]
    {
        let store = CheckpointStore::new(HOSTS);
        let full = saver(&CkptPlan::saving(Arc::clone(&store), 2))
            .unwrap_or_else(|e| panic!("{name}: saving run failed: {e}"));
        assert_eq!(full.values, expect, "{name}: saving run");
        let r0 = store.latest_common().expect("a ~48-round run saves checkpoints");
        assert!(r0 > 0, "{name}: saved boundary {r0}");

        let before = lci_trace::global().snapshot();
        let plan = CkptPlan { store: Arc::clone(&store), every: 0, resume_from: Some(r0) };
        let resumed = resumer(&plan).unwrap_or_else(|e| panic!("{name}: resume failed: {e}"));
        let delta = lci_trace::global().snapshot().delta(&before);
        let restores = delta.get(Counter::EngineCkptRestores);
        assert_eq!(resumed.values, expect, "{name}: resumed run");
        assert_eq!(
            resumed.rounds as u64 + r0,
            full.rounds as u64,
            "{name}: resuming at round {r0} must execute only the rounds after it"
        );
        // Every host restores exactly once; concurrent tests of this binary
        // restore too, so the global counter can only be bounded from below.
        assert!(restores >= HOSTS as u64, "{name}: {restores} restores, want one per host");
    }
}
