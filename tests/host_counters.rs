//! The per-host counter table is the only store: `StatsSnapshot` and
//! `DeviceStats` are views of it, hosts of different fabrics never share a
//! table, and reads of the process-wide table include every host's.
//!
//! Host tables belong to one fabric each, so they are asserted exactly;
//! `lci_trace::global()` is shared with every other test in this binary and
//! is only ever asserted to have moved *at least* as far.

use bytes::Bytes;
use lci::{Device, DeviceStats, LciConfig};
use lci_fabric::{Fabric, FabricConfig, Fault, FaultPlan, StatsSnapshot};
use lci_trace::counters::ALL_COUNTERS;
use lci_trace::{Counter, Registry};

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
