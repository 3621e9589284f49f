//! The per-host counter table is the only store: `StatsSnapshot` and
//! `DeviceStats` are views of it, hosts of different fabrics never share a
//! table, and reads of the process-wide table include every host's.
//!
//! Host tables belong to one fabric each, so they are asserted exactly;
//! `lci_trace::global()` is shared with every other test in this binary and
//! is only ever asserted to have moved *at least* as far.

use abelian::apps::{reference, Bfs};
use abelian::comm::exchange_all;
use abelian::layers::MpiProbeLayer;
use abelian::{build_layers, run_app, CommLayer, EngineConfig, LayerKind};
use bytes::Bytes;
use lci::{Device, DeviceStats, LciConfig};
use lci_fabric::{Fabric, FabricConfig, Fault, FaultPlan, ReliableConfig, StatsSnapshot};
use lci_graph::{gen, partition, Policy};
use lci_trace::counters::ALL_COUNTERS;
use lci_trace::{Counter, Registry};
use std::sync::Arc;

/// Light each counter alone on an isolated table and check that `fields`
/// (a view, flattened) reads every field from exactly one counter and no
/// counter into two fields.
fn assert_one_counter_per_field<const N: usize>(
    view: &str,
    fields: impl Fn(&Registry) -> [u64; N],
) {
    let mut source: [Option<Counter>; N] = [None; N];
    for c in ALL_COUNTERS {
        let r = Registry::new();
        r.add(c, 5);
        let got = fields(&r);
        let lit: Vec<usize> = (0..N).filter(|&i| got[i] != 0).collect();
        assert!(
            lit.len() <= 1,
            "{} feeds {} fields of {view}",
            c.name(),
            lit.len()
        );
        if let Some(&i) = lit.first() {
            assert_eq!(got[i], 5, "{view} field {i} must copy {} as is", c.name());
            let earlier = source[i].replace(c);
            assert!(
                earlier.is_none(),
                "{view} field {i} reads {earlier:?} and {c:?}"
            );
        }
    }
    for (i, c) in source.iter().enumerate() {
        assert!(c.is_some(), "{view} field {i} reads no counter");
    }
}

// Both destructurings name every field without `..`: a field added to either
// view without a counter behind it stops this file compiling.

fn stats_fields(r: &Registry) -> [u64; 18] {
    let StatsSnapshot {
        sends,
        send_bytes,
        puts,
        put_bytes,
        recvs,
        rnr_retries,
        backpressure,
        errors,
        fault_delayed,
        fault_reordered,
        fault_forced_rnr,
        fault_brownout_rejects,
        fault_corrupted,
        fault_duplicated,
        fault_truncated,
        fault_dropped,
        fault_blackholed,
        fault_crashed,
    } = StatsSnapshot::from(r);
    [
        sends,
        send_bytes,
        puts,
        put_bytes,
        recvs,
        rnr_retries,
        backpressure,
        errors,
        fault_delayed,
        fault_reordered,
        fault_forced_rnr,
        fault_brownout_rejects,
        fault_corrupted,
        fault_duplicated,
        fault_truncated,
        fault_dropped,
        fault_blackholed,
        fault_crashed,
    ]
}

fn device_fields(r: &Registry) -> [u64; 6] {
    let DeviceStats {
        egr_sent,
        rdv_opened,
        received,
        enq_rejected,
        retries,
        retries_exhausted,
    } = DeviceStats::from(r);
    [
        egr_sent,
        rdv_opened,
        received,
        enq_rejected,
        retries,
        retries_exhausted,
    ]
}

#[test]
fn snapshot_views_read_each_field_from_its_own_counter() {
    assert_one_counter_per_field("StatsSnapshot", stats_fields);
    assert_one_counter_per_field("DeviceStats", device_fields);
}

#[test]
fn stats_snapshot_roll_ups_follow_the_table() {
    let r = Registry::new();
    r.add(Counter::FabricSends, 3);
    r.add(Counter::FabricSendBytes, 300);
    r.add(Counter::FabricPuts, 2);
    r.add(Counter::FabricPutBytes, 2000);
    let snap = StatsSnapshot::from(&r);
    assert_eq!(snap.messages(), 5);
    assert_eq!(snap.bytes(), 2300);
    assert_eq!(snap.fault_events(), 0);
    let faults = [
        Counter::FabricFaultDelayed,
        Counter::FabricFaultReordered,
        Counter::FabricFaultForcedRnr,
        Counter::FabricFaultBrownoutRejects,
        Counter::FabricFaultCorrupted,
        Counter::FabricFaultDuplicated,
        Counter::FabricFaultTruncated,
        Counter::FabricFaultDropped,
        Counter::FabricFaultBlackholed,
        Counter::FabricFaultCrashed,
    ];
    for (i, c) in faults.into_iter().enumerate() {
        r.add(c, i as u64 + 1);
    }
    assert_eq!(StatsSnapshot::from(&r).fault_events(), 55);
}

/// Stream `n` eager messages host 0 → host 1 over LCI devices on a manual
/// fabric and run both hosts to quiescence, advancing the virtual clock by
/// hand whenever the wire idles so reliable-layer timers can fire.
fn stream_to_quiescence(f: &Fabric, n: u32) {
    let a = Device::new(f.endpoint(0), LciConfig::default());
    let b = Device::new(f.endpoint(1), LciConfig::default());
    let (mut sent, mut got, mut guard) = (0u32, 0u32, 0u32);
    while got < n || !a.quiescent() || !b.quiescent() {
        guard += 1;
        assert!(guard < 1_000_000, "stream wedged at {got}/{n}");
        if sent < n {
            match a.send_enq(Bytes::from(vec![sent as u8; 24]), 1, sent) {
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
        while b.recv_deq().is_some() {
            got += 1;
        }
    }
    f.drain();
}

fn sum_over_hosts(f: &Fabric, c: Counter) -> u64 {
    (0..f.num_hosts())
        .map(|h| f.endpoint(h).counters().get(c))
        .sum()
}

#[test]
fn host_tables_belong_to_one_fabric_and_show_in_the_global_table() {
    let global_before = lci_trace::global().snapshot();
    let busy = Fabric::new_manual(FabricConfig::deterministic(2, 11));
    let idle = Fabric::new_manual(FabricConfig::deterministic(2, 11));
    const N: u32 = 48;
    stream_to_quiescence(&busy, N);

    for h in 0..idle.num_hosts() {
        let table = idle.endpoint(h).counters().snapshot();
        assert_eq!(table.nonzero(), vec![], "idle fabric, host {h}");
    }
    // Who did what is now a per-host fact.
    let (tx, rx) = (busy.endpoint(0), busy.endpoint(1));
    assert_eq!(tx.counters().get(Counter::LciEgrSent), N as u64);
    assert_eq!(rx.counters().get(Counter::LciEgrSent), 0);
    assert_eq!(rx.counters().get(Counter::LciReceived), N as u64);
    assert_eq!(tx.counters().get(Counter::LciReceived), 0);
    // Lossless wire: every frame a host injected (data or ack) reached one.
    let sends = sum_over_hosts(&busy, Counter::FabricSends);
    assert!(sends >= N as u64);
    assert_eq!(sends, sum_over_hosts(&busy, Counter::FabricRecvs));
    assert_eq!(sum_over_hosts(&busy, Counter::FabricReliableRetransmits), 0);
    // The views are the table, and the process-wide table includes it.
    assert_eq!(tx.stats(), StatsSnapshot::from(tx.counters()));
    let moved = lci_trace::global().snapshot().delta(&global_before);
    for c in [
        Counter::FabricSends,
        Counter::FabricRecvs,
        Counter::LciProgressPolls,
    ] {
        assert!(moved.get(c) >= sum_over_hosts(&busy, c), "{}", c.name());
    }
}

#[test]
fn retransmissions_are_counted_on_the_sending_host_only() {
    let plan = FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Drop { prob_ppm: 200_000 });
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 0xC0FFEE).with_fault_plan(plan));
    stream_to_quiescence(&f, 64);
    let (tx, rx) = (f.endpoint(0), f.endpoint(1));
    assert!(
        tx.stats().fault_dropped > 0,
        "the plan must have eaten a data frame"
    );
    assert!(tx.counters().get(Counter::FabricReliableRetransmits) > 0);
    // Host 1 only ever sent standalone acks, which are never retransmitted.
    assert_eq!(rx.counters().get(Counter::FabricReliableRetransmits), 0);
    assert_eq!(rx.counters().get(Counter::LciReceived), 64);
}

/// An engine's rounds and phase spans count on the table of the host that
/// ran them: after a 2-host Abelian Bfs over LCI each host's table has its
/// own compute and communication time and its own round count, and the
/// global `phase.*` rows moved by exactly the sum over the two tables (no
/// other test of this binary runs an engine or opens a span).
#[test]
fn phase_rows_are_counted_on_the_host_that_ran_them() {
    let phases = [
        Counter::PhaseComputeNs,
        Counter::PhaseReduceNs,
        Counter::PhaseBroadcastNs,
        Counter::PhaseControlNs,
        Counter::PhaseCommNs,
    ];
    let g = gen::rmat(9, 8, 26);
    let parts = partition(&g, 2, Policy::VertexCutCartesian);
    let before = lci_trace::global().snapshot();
    let (layers, world) = build_layers(
        LayerKind::Lci,
        FabricConfig::test(2),
        mini_mpi::MpiConfig::default(),
        LciConfig::for_hosts(2),
    );
    let r = run_app(
        &parts,
        Arc::new(Bfs { source: 0 }),
        &layers,
        &EngineConfig::default(),
    );
    assert_eq!(r.values, reference::bfs(&g, 0));
    let moved = lci_trace::global().snapshot().delta(&before);
    let fabric = world.fabric();
    for (h, host) in r.hosts.iter().enumerate() {
        let table = layers[h].counters();
        assert!(
            std::ptr::eq(table, fabric.endpoint(h).counters()),
            "host {h}: not its endpoint's table"
        );
        for c in [Counter::PhaseComputeNs, Counter::PhaseCommNs] {
            assert!(table.get(c) > 0, "host {h}: no {}", c.name());
        }
        assert_eq!(
            table.get(Counter::EngineRounds),
            host.metrics.num_rounds() as u64,
            "host {h}"
        );
    }
    for c in phases {
        assert_eq!(moved.get(c), sum_over_hosts(fabric, c), "{}", c.name());
    }
}

/// A frame that fails de-framing counts on the table of the host that
/// received it: an aggregate of the probe layer whose bytes cannot hold a
/// sub-frame header reaches host 1, host 1's table counts it, and the global
/// row moved by exactly the sum over hosts (no other test of this binary
/// drops a frame).
#[test]
fn a_malformed_frame_counts_on_the_receiving_hosts_table() {
    let c = Counter::EngineMalformedDropped;
    let before = lci_trace::global().snapshot();
    let world = mini_mpi::MpiWorld::new(FabricConfig::test(2), mini_mpi::MpiConfig::default());
    let layers = [0, 1].map(|h| MpiProbeLayer::new(world.comm(h)));
    // The tag of the probe layer's aggregates (channel 15); three bytes are
    // too short for a sub-frame's `[tag u32][len u32]`.
    let mangled = Bytes::from_static(&[1, 2, 3]);
    world.comm(0).send_blocking(mangled, 1, 15 << 24).unwrap();
    std::thread::scope(|s| {
        for l in &layers {
            s.spawn(move || {
                let got = exchange_all(l, 0, vec![vec![7]; 2]);
                assert_eq!(got, [(1 - l.rank(), vec![7])], "the round still completes");
                l.quiesce();
            });
        }
    });
    let fabric = world.fabric();
    assert_eq!(fabric.endpoint(1).counters().get(c), 1, "receiver");
    assert_eq!(fabric.endpoint(0).counters().get(c), 0, "sender");
    let moved = lci_trace::global().snapshot().delta(&before);
    assert_eq!(moved.get(c), sum_over_hosts(fabric, c));
}

/// A frame beyond a receive gate's window counts on the table of the host
/// whose gate refused it. With gates one frame wide and a lossy wire, every
/// frame that overtakes a lost one overflows host 1's gate; host 0, which
/// only ever receives acks, counts none; and the global row moved by exactly
/// the sum over hosts (no other test of this binary overflows a gate).
#[test]
fn a_window_overflow_counts_on_the_receiving_hosts_table() {
    let c = Counter::FabricFrameWindowOverflow;
    let before = lci_trace::global().snapshot();
    let plan = FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Drop { prob_ppm: 100_000 });
    // A refused frame is sent again until it arrives in order: a budget
    // that outlasts the losses in a row, so no peer is declared dead.
    let gate = ReliableConfig::default()
        .with_gate_window(1)
        .with_retry_budget(64);
    let cfg = FabricConfig::deterministic(2, 0xC0FFEE)
        .with_fault_plan(plan)
        .with_reliable(gate);
    let f = Fabric::new_manual(cfg);
    stream_to_quiescence(&f, 64);
    let (tx, rx) = (f.endpoint(0), f.endpoint(1));
    assert_eq!(rx.counters().get(Counter::LciReceived), 64);
    assert!(rx.counters().get(c) > 0, "no frame overtook a lost one");
    assert_eq!(tx.counters().get(c), 0);
    let moved = lci_trace::global().snapshot().delta(&before);
    assert_eq!(moved.get(c), sum_over_hosts(&f, c));
}

/// A backoff counts its waits on the table of the host that waits: host 0's
/// `send_enq_backoff` against an exhausted pool spends its whole budget on
/// host 0's table, host 1 counts nothing, and the global rows moved by
/// exactly the sum over hosts (no other test of this binary backs off).
#[test]
fn backoff_waits_count_on_the_waiting_hosts_table() {
    let rows = [Counter::LciBackoffWaits, Counter::LciBackoffWaitNs];
    let before = lci_trace::global().snapshot();
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 5));
    // Two packets, both held until host 1 acknowledges — which it never
    // does, since nothing here steps the wire.
    let cfg = LciConfig::for_hosts(2)
        .with_packet_count(2)
        .with_retry_budget(3)
        .with_backoff(1, 1);
    let a = Device::new(f.endpoint(0), cfg);
    for tag in 0..2 {
        a.send_enq(Bytes::from_static(b"held"), 1, tag).unwrap();
    }
    assert_eq!(
        a.send_enq_backoff(Bytes::from_static(b"late"), 1, 2)
            .unwrap_err(),
        lci::EnqError::RetriesExhausted
    );
    let (tx, rx) = (f.endpoint(0), f.endpoint(1));
    assert_eq!(tx.counters().get(Counter::LciBackoffWaits), 3);
    assert_eq!(tx.counters().get(Counter::LciBackoffWaitNs), 3, "1 ns each");
    for c in rows {
        assert_eq!(rx.counters().get(c), 0, "{}", c.name());
    }
    let moved = lci_trace::global().snapshot().delta(&before);
    for c in rows {
        assert_eq!(moved.get(c), sum_over_hosts(&f, c), "{}", c.name());
    }
}
