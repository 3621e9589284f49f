//! Golden tests for the `lci-trace` observability layer: counter deltas for
//! a fixed `FABRIC_SEED` must replay exactly, and the per-thread event ring
//! must see the traffic the counters claim happened.
//!
//! The trace registry is process-global, so every test here serializes on
//! one mutex and measures *deltas* (snapshot before, snapshot after) rather
//! than absolute values.

use bytes::Bytes;
use lci::{Device, LciConfig};
use lci_fabric::{Fabric, FabricConfig, Fault, FaultPlan};
use lci_trace::counters::ALL_COUNTERS;
use lci_trace::{Counter, EventKind, Unit};
use std::sync::Mutex;

/// Serializes trace-registry access across the tests in this binary.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// The fabric seed for this process: `FABRIC_SEED` env var, or a fixed
/// default, mirroring the stress suite.
fn fabric_seed() -> u64 {
    std::env::var("FABRIC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// One fixed manual-clock LCI workload; returns the per-counter registry
/// delta it produced. Single-threaded and virtual-time, so every non-time
/// counter it touches is a pure function of the seed.
fn manual_lci_run(seed: u64) -> Vec<(Counter, u64)> {
    let before = lci_trace::global().snapshot();
    let fcfg = FabricConfig::deterministic(2, seed);
    let f = Fabric::new_manual(fcfg);
    let a = Device::new(f.endpoint(0), LciConfig::default());
    let b = Device::new(f.endpoint(1), LciConfig::default());
    const N: u32 = 64;
    let mut sent = 0u32;
    let mut got = 0u32;
    let mut guard = 0u32;
    while got < N {
        guard += 1;
        assert!(guard < 1_000_000, "golden workload wedged at {got}/{N}");
        if sent < N {
            match a.send_enq(Bytes::from(vec![sent as u8; 24]), 1, sent) {
                Ok(_) => sent += 1,
                Err(e) if e.is_retryable() => {}
                Err(e) => panic!("{e}"),
            }
        }
        f.step();
        a.progress();
        b.progress();
        while b.recv_deq().is_some() {
            got += 1;
        }
    }
    f.drain();
    let after = lci_trace::global().snapshot();
    let delta = after.delta(&before);
    ALL_COUNTERS.iter().map(|&c| (c, delta.get(c))).collect()
}

/// The same workload on a wire that eats 5% of packets, virtual-clocked so
/// the whole recovery schedule — drop decisions, retransmission timers,
/// standalone-ack deadlines — is a pure function of the seed. When the wire
/// goes idle (every in-flight copy dropped), virtual time is advanced by
/// hand so the reliable layer's timers can fire.
fn manual_lossy_run(seed: u64) -> Vec<(Counter, u64)> {
    let before = lci_trace::global().snapshot();
    let plan = FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Drop { prob_ppm: 50_000 });
    let fcfg = FabricConfig::deterministic(2, seed).with_fault_plan(plan);
    let f = Fabric::new_manual(fcfg);
    let a = Device::new(f.endpoint(0), LciConfig::default());
    let b = Device::new(f.endpoint(1), LciConfig::default());
    const N: u32 = 64;
    let mut sent = 0u32;
    let mut got = 0u32;
    let mut guard = 0u32;
    while got < N {
        guard += 1;
        assert!(guard < 1_000_000, "lossy golden workload wedged at {got}/{N}");
        if sent < N {
            match a.send_enq(Bytes::from(vec![sent as u8; 24]), 1, sent) {
                Ok(_) => sent += 1,
                Err(e) if e.is_retryable() => {}
                Err(e) => panic!("{e}"),
            }
        }
        if !f.step() {
            // Wire idle: only a timer can make progress now.
            f.advance_virtual(200_000);
        }
        a.progress();
        b.progress();
        while b.recv_deq().is_some() {
            got += 1;
        }
    }
    f.drain();
    let after = lci_trace::global().snapshot();
    let delta = after.delta(&before);
    ALL_COUNTERS.iter().map(|&c| (c, delta.get(c))).collect()
}

/// A full crash-stop lifecycle on a manual-clock wire: stream toward a host
/// that the fault plan kills mid-stream, let the sender's retransmission
/// budget exhaust against the silence, probe the dying epoch, respawn the
/// host under a bumped incarnation, rejoin every device, and prove the new
/// incarnation delivers. Single-threaded and virtual-time, so the entire
/// schedule — which delivery trips the crash, how many retransmissions die
/// at the wire, which probes surface as stale-epoch drops — is a pure
/// function of the seed.
fn manual_crash_run(seed: u64) -> Vec<(Counter, u64)> {
    let before = lci_trace::global().snapshot();
    let plan = FaultPlan::none().with_phase(
        0,
        u64::MAX / 2,
        Fault::Crash {
            host: 2,
            after_packets: 12,
        },
    );
    let fcfg = FabricConfig::deterministic(3, seed).with_fault_plan(plan);
    let f = Fabric::new_manual(fcfg);
    let a = Device::new(f.endpoint(0), LciConfig::default());
    let b = Device::new(f.endpoint(1), LciConfig::default());
    let c = Device::new(f.endpoint(2), LciConfig::default());
    const N: u32 = 16;
    // Phase 1: stream toward host 2 until the crash fires and host 0's
    // retry budget declares it dead. Virtual time is advanced by hand when
    // the wire idles so the retransmission timers can burn their budget.
    let mut sent = 0u32;
    let mut guard = 0u32;
    while !a.is_failed() {
        guard += 1;
        assert!(guard < 1_000_000, "crash was never detected");
        if sent < N {
            match a.send_enq(Bytes::from(vec![sent as u8; 24]), 2, sent) {
                Ok(_) => sent += 1,
                Err(e) if e.is_retryable() => {}
                Err(_) => break, // peer already declared dead at enqueue
            }
        }
        if !f.step() {
            f.advance_virtual(200_000);
        }
        a.progress();
        b.progress();
        c.progress();
        while c.recv_deq().is_some() {}
    }
    // Phase 2: recovery. Survivors seal one probe per peer under the dying
    // epoch, the fabric respawns host 2 under a bumped incarnation, and
    // every device rejoins. The survivor↔survivor probes surface later as
    // stale-epoch drops — deterministic evidence the old incarnation was
    // discarded rather than replayed.
    a.flush_epoch_probe();
    b.flush_epoch_probe();
    f.respawn(2);
    a.rejoin();
    b.rejoin();
    c.rejoin();
    // Phase 3: the respawned incarnation must carry fresh traffic.
    let mut sent = 0u32;
    let mut got = 0u32;
    let mut guard = 0u32;
    while got < N {
        guard += 1;
        assert!(guard < 1_000_000, "post-respawn workload wedged at {got}/{N}");
        if sent < N {
            match a.send_enq(Bytes::from(vec![sent as u8; 24]), 2, sent) {
                Ok(_) => sent += 1,
                Err(e) if e.is_retryable() => {}
                Err(e) => panic!("{e}"),
            }
        }
        if !f.step() {
            f.advance_virtual(200_000);
        }
        a.progress();
        b.progress();
        c.progress();
        while c.recv_deq().is_some() {
            got += 1;
        }
    }
    f.drain();
    let after = lci_trace::global().snapshot();
    let delta = after.delta(&before);
    ALL_COUNTERS.iter().map(|&c| (c, delta.get(c))).collect()
}

/// Same seed ⇒ identical counter deltas for every count/byte-valued counter.
/// Time-valued (`ns`) counters are excluded: they measure the host clock,
/// not the virtual schedule. Gauges are excluded too: a gauge holds a
/// last-written value, so its snapshot *delta* is not a meaningful quantity
/// to compare across runs.
#[test]
fn counter_deltas_replay_bit_for_bit() {
    let _g = TRACE_LOCK.lock().unwrap();
    let seed = fabric_seed();
    let d1 = manual_lci_run(seed);
    let d2 = manual_lci_run(seed);
    for (&(c1, v1), &(c2, v2)) in d1.iter().zip(d2.iter()) {
        assert_eq!(c1.name(), c2.name());
        if c1.unit() == Unit::Nanos || c1.unit().is_gauge() {
            continue;
        }
        assert_eq!(
            v1, v2,
            "counter {} diverged between identical seeded runs: {v1} vs {v2}",
            c1.name()
        );
    }
    // The workload must actually register in the unified registry.
    let get = |c: Counter| d1.iter().find(|(k, _)| *k == c).unwrap().1;
    assert!(get(Counter::FabricSends) >= 64, "fabric sends missing");
    assert!(get(Counter::FabricRecvs) >= 64, "fabric recvs missing");
    assert!(get(Counter::LciEgrSent) >= 64, "lci eager sends missing");
    assert!(get(Counter::LciReceived) >= 64, "lci receives missing");
    assert!(get(Counter::LciProgressPolls) > 0, "progress polls missing");
}

/// Retransmission determinism: same `FABRIC_SEED` + same `FaultPlan` ⇒
/// bit-identical `fabric.reliable.*` (and `fabric.fault.*`) counter deltas.
/// The recovery machinery — which packets die, which frames retransmit,
/// which acks are piggybacked vs standalone — replays exactly, so a chaos
/// failure seed is a complete reproduction recipe.
#[test]
fn reliable_recovery_replays_bit_for_bit_under_loss() {
    let _g = TRACE_LOCK.lock().unwrap();
    let seed = fabric_seed();
    let d1 = manual_lossy_run(seed);
    let d2 = manual_lossy_run(seed);
    for (&(c1, v1), &(c2, v2)) in d1.iter().zip(d2.iter()) {
        assert_eq!(c1.name(), c2.name());
        if c1.unit() == Unit::Nanos || c1.unit().is_gauge() {
            continue;
        }
        assert_eq!(
            v1, v2,
            "counter {} diverged between identical lossy seeded runs: {v1} vs {v2}",
            c1.name()
        );
    }
    // The run must have exercised the machinery it claims to pin down:
    // real losses, real retransmissions, real (cumulative/selective) acks.
    let get = |c: Counter| d1.iter().find(|(k, _)| *k == c).unwrap().1;
    assert!(get(Counter::FabricFaultDropped) > 0, "no packets dropped");
    assert!(
        get(Counter::FabricReliableRetransmits) > 0,
        "no retransmissions"
    );
    assert!(get(Counter::FabricReliableAcksSent) > 0, "no standalone acks");
    assert!(get(Counter::FabricReliableAcked) > 0, "no frames acked");
    assert_eq!(get(Counter::FabricReliablePeerDead), 0, "spurious peer death");
}

/// Crash-recovery determinism: same `FABRIC_SEED` + same crash plan ⇒
/// bit-identical counter deltas for the whole detect→probe→respawn→rejoin→
/// resume lifecycle. A crash-chaos failure seed is therefore a complete
/// reproduction recipe, exactly like a loss-chaos one.
#[test]
fn crash_recovery_replays_bit_for_bit() {
    let _g = TRACE_LOCK.lock().unwrap();
    let seed = fabric_seed();
    let d1 = manual_crash_run(seed);
    let d2 = manual_crash_run(seed);
    for (&(c1, v1), &(c2, v2)) in d1.iter().zip(d2.iter()) {
        assert_eq!(c1.name(), c2.name());
        if c1.unit() == Unit::Nanos || c1.unit().is_gauge() {
            continue;
        }
        assert_eq!(
            v1, v2,
            "counter {} diverged between identical crash-seeded runs: {v1} vs {v2}",
            c1.name()
        );
    }
    // The lifecycle must have actually happened: a crash fired, the peer
    // was declared dead, the host respawned, and stragglers of the dead
    // incarnation were dropped by the epoch gate.
    let get = |c: Counter| d1.iter().find(|(k, _)| *k == c).unwrap().1;
    assert!(get(Counter::FabricFaultCrashed) > 0, "crash never fired");
    assert!(get(Counter::FabricReliablePeerDead) > 0, "peer never declared dead");
    assert!(get(Counter::FabricEpochRespawns) > 0, "respawn not recorded");
    assert!(
        get(Counter::FabricEpochStaleDropped) > 0,
        "no stale-epoch drops: old incarnation left no evidence"
    );
}

/// The calling thread's event ring observes the sends the counters report:
/// the two views of the same traffic must agree.
#[test]
fn ring_sees_the_traffic_the_counters_count() {
    let _g = TRACE_LOCK.lock().unwrap();
    // Drain anything previous tests on this thread left behind.
    lci_trace::with_ring(|r| {
        r.drain();
    });
    let before = lci_trace::global().snapshot();
    let fcfg = FabricConfig::deterministic(2, fabric_seed());
    let f = Fabric::new_manual(fcfg);
    let a = Device::new(f.endpoint(0), LciConfig::default());
    let b = Device::new(f.endpoint(1), LciConfig::default());
    let mut got = 0;
    let mut sent = 0;
    let mut guard = 0u32;
    while got < 8 {
        guard += 1;
        assert!(guard < 1_000_000, "ring workload wedged");
        if sent < 8 {
            match a.send_enq(Bytes::from_static(b"ring-golden"), 1, sent) {
                Ok(_) => sent += 1,
                Err(e) if e.is_retryable() => {}
                Err(e) => panic!("{e}"),
            }
        }
        f.step();
        a.progress();
        b.progress();
        while b.recv_deq().is_some() {
            got += 1;
        }
    }
    let delta = lci_trace::global().snapshot().delta(&before);
    let events = lci_trace::with_ring(|r| r.drain()).expect("ring available");
    let ring_sends = events
        .iter()
        .filter(|e| e.kind == EventKind::Send)
        .count() as u64;
    // Everything ran on this one thread, so the thread-local ring saw every
    // send the global registry counted.
    assert_eq!(
        ring_sends,
        delta.get(Counter::FabricSends),
        "ring and registry disagree about send count"
    );
    assert!(events.iter().any(|e| e.kind == EventKind::Recv));
}

/// The events of a ring that a fabric stamps (directly, or for a runtime
/// through `Endpoint::record`), as `(kind, a, b, t_ns)`.
fn wire_events(events: &[lci_trace::TraceEvent]) -> Vec<(EventKind, u32, u64, u64)> {
    use EventKind::*;
    events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                Send | Recv | Put | RnrBounce | Backpressure | PoolExhausted | EnqRetry | Fault
            )
        })
        .map(|e| (e.kind, e.a, e.b, e.t_ns))
        .collect()
}

/// Eager and rendezvous messages between two devices on a caller-stepped
/// wire that duplicates every frame; returns the fabric's events this
/// thread's ring saw and the virtual time at the end.
fn manual_ring_run(seed: u64) -> (Vec<(EventKind, u32, u64, u64)>, u64) {
    lci_trace::with_ring(|r| {
        r.drain();
    });
    let plan = FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Duplicate);
    let f = Fabric::new_manual(FabricConfig::deterministic(2, seed).with_fault_plan(plan));
    let a = Device::new(f.endpoint(0), LciConfig::default());
    let b = Device::new(f.endpoint(1), LciConfig::default());
    const N: u32 = 12;
    let (mut sent, mut got, mut guard) = (0u32, 0u32, 0u32);
    let mut pending = Vec::new();
    while got < N || !a.quiescent() || !b.quiescent() {
        guard += 1;
        assert!(guard < 1_000_000, "ring replay wedged at {got}/{N}");
        if sent < N {
            // Every third message is above the eager limit: RTS, RTR, put.
            let len = if sent % 3 == 2 { 16 << 10 } else { 24 };
            match a.send_enq(Bytes::from(vec![sent as u8; len]), 1, sent) {
                Ok(_) => sent += 1,
                Err(e) if e.is_retryable() => {}
                Err(e) => panic!("{e}"),
            }
        }
        if !f.step() {
            f.advance_virtual(200_000);
        }
        a.progress();
        b.progress();
        while let Some(req) = b.recv_deq() {
            pending.push(req);
        }
        pending.retain(|req| {
            let done = req.take_data().is_some();
            got += done as u32;
            !done
        });
    }
    f.drain();
    let events = lci_trace::with_ring(|r| r.drain()).expect("ring available");
    let end = f.sim_time_ns().expect("manual fabric");
    (wire_events(&events), end)
}

/// A caller-stepped fabric stamps its ring events on its virtual clock, so
/// two replays of one seed leave the same wire events at the same stamps,
/// none of them later than the virtual time the run ended at.
#[test]
fn wire_event_rings_replay_bit_for_bit() {
    let _g = TRACE_LOCK.lock().unwrap();
    let seed = fabric_seed();
    let (first, end) = manual_ring_run(seed);
    let (second, end_again) = manual_ring_run(seed);
    assert_eq!(first, second, "seed {seed}: wire-event rings differ");
    assert_eq!(end, end_again);
    use EventKind::{Fault, Put, Recv, Send};
    for kind in [Send, Recv, Put, Fault] {
        assert!(first.iter().any(|e| e.0 == kind), "no {kind:?} event");
    }
    assert!(
        first.iter().all(|&(.., t_ns)| t_ns <= end),
        "a stamp beyond the virtual clock's end ({end} ns)"
    );
}
