//! Behavioural integration tests for the fabric simulator.

use lci_fabric::{Event, Fabric, FabricConfig, SendError, WireModel};
use std::time::{Duration, Instant};

fn poll_until<F: FnMut() -> bool>(mut f: F, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::hint::spin_loop();
    }
}

#[test]
fn send_roundtrip_all_pairs() {
    let f = Fabric::new(FabricConfig::test(4));
    let eps = f.endpoints();
    for src in 0..4usize {
        for dst in 0..4usize {
            if src == dst {
                continue;
            }
            let payload = vec![src as u8, dst as u8, 0xAB];
            eps[src]
                .try_send(dst as u16, ((src * 10 + dst) as u64) << 8, &payload, 1)
                .unwrap();
            let mut got = false;
            poll_until(
                || {
                    if let Some(Event::Recv { src: s, header, data }) = eps[dst].poll() {
                        assert_eq!(s as usize, src);
                        assert_eq!(header, ((src * 10 + dst) as u64) << 8);
                        assert_eq!(&*data, &payload[..]);
                        got = true;
                    }
                    got
                },
                "recv",
            );
            // sender completion
            let mut done = false;
            poll_until(
                || {
                    if let Some(Event::SendDone { ctx }) = eps[src].poll() {
                        assert_eq!(ctx, 1);
                        done = true;
                    }
                    done
                },
                "send done",
            );
        }
    }
}

#[test]
fn rdma_put_writes_remote_region_and_notifies() {
    let f = Fabric::new(FabricConfig::test(2));
    let a = f.endpoint(0);
    let b = f.endpoint(1);
    let mr = b.register_mr(64);
    let key = mr.key();

    let data: Vec<u8> = (0..32u8).collect();
    a.try_put(1, key, 16, &data, 99, Some(0xF00D)).unwrap();

    let mut put_done = false;
    poll_until(
        || {
            if let Some(Event::PutDone { ctx, .. }) = a.poll() {
                assert_eq!(ctx, 99);
                put_done = true;
            }
            put_done
        },
        "put done",
    );
    let mut arrived = false;
    poll_until(
        || {
            if let Some(Event::PutArrived { src, imm, len, .. }) = b.poll() {
                assert_eq!(src, 0);
                assert_eq!(imm, 0xF00D);
                assert_eq!(len, 32);
                arrived = true;
            }
            arrived
        },
        "put arrived",
    );
    let mut out = vec![0u8; 32];
    mr.read_at(16, &mut out);
    assert_eq!(out, data);
}

#[test]
fn put_to_missing_region_raises_bad_mr() {
    let f = Fabric::new(FabricConfig::test(2));
    let a = f.endpoint(0);
    a.try_put(1, lci_fabric::MrKey(12345), 0, &[1, 2, 3], 5, None)
        .unwrap();
    let mut errored = false;
    poll_until(
        || {
            if let Some(Event::Error { ctx, .. }) = a.poll() {
                assert_eq!(ctx, 5);
                errored = true;
            }
            errored
        },
        "bad mr error",
    );
}

#[test]
fn injection_backpressure_kicks_in() {
    let mut cfg = FabricConfig::test(2).with_injection_depth(4);
    // Slow wire so tokens are not returned immediately.
    cfg.wire = WireModel {
        base_latency_ns: 50_000_000, // 50 ms
        ns_per_byte: 0.0,
        jitter_ns: 0,
        put_extra_ns: 0,
    };
    let f = Fabric::new(cfg);
    let a = f.endpoint(0);
    let mut accepted = 0;
    let mut pressed = false;
    for i in 0..16 {
        match a.try_send(1, 0, b"x", i) {
            Ok(()) => accepted += 1,
            Err(SendError::Backpressure) => {
                pressed = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(accepted, 4);
    assert!(pressed, "expected backpressure after filling injection queue");
    assert!(a.stats().backpressure >= 1);
}

#[test]
fn rx_exhaustion_fails_sender_when_retry_limit_small() {
    let mut cfg = FabricConfig::test(2)
        .with_rx_buffers(2)
        .with_rnr_retry_limit(2)
        .with_injection_depth(64);
    cfg.rnr_delay_ns = 10_000;
    let f = Fabric::new(cfg);
    let a = f.endpoint(0);
    let b = f.endpoint(1);

    // Fill the receiver's two buffers; hold the packets so credits stay consumed.
    a.try_send(1, 0, b"one", 1).unwrap();
    a.try_send(1, 0, b"two", 2).unwrap();
    let mut held = Vec::new();
    poll_until(
        || {
            if let Some(Event::Recv { data, .. }) = b.poll() {
                held.push(data);
            }
            held.len() == 2
        },
        "fill rx buffers",
    );

    // Third message cannot be delivered: receiver never frees buffers, so the
    // retry limit trips and the sender is failed.
    a.try_send(1, 0, b"three", 3).unwrap();
    let mut fatal = false;
    poll_until(
        || {
            if let Some(Event::Error { ctx, .. }) = a.poll() {
                assert_eq!(ctx, 3);
                fatal = true;
            }
            fatal
        },
        "rnr fatal",
    );
    assert!(a.is_failed());
    assert!(matches!(
        a.try_send(1, 0, b"post-mortem", 4),
        Err(SendError::Closed)
    ));

    // Dropping the held packets returns credits.
    drop(held);
    poll_until(|| b.rx_credits() == 2, "credits returned");
}

#[test]
fn rx_exhaustion_recovers_when_receiver_frees_buffers() {
    let mut cfg = FabricConfig::test(2).with_rx_buffers(1);
    cfg.rnr_delay_ns = 5_000;
    let f = Fabric::new(cfg);
    let a = f.endpoint(0);
    let b = f.endpoint(1);

    a.try_send(1, 0, b"first", 1).unwrap();
    let mut first = None;
    poll_until(
        || {
            if let Some(Event::Recv { data, .. }) = b.poll() {
                first = Some(data);
            }
            first.is_some()
        },
        "first recv",
    );

    // Second message will RNR-retry until we free the first packet.
    a.try_send(1, 0, b"second", 2).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    assert!(b.poll().is_none(), "second must be stuck behind rx credit");
    drop(first);
    let mut got_second = false;
    poll_until(
        || {
            if let Some(Event::Recv { data, .. }) = b.poll() {
                assert_eq!(&*data, b"second");
                got_second = true;
            }
            got_second
        },
        "second recv after credit return",
    );
    assert!(a.stats().rnr_retries >= 1, "retries should have been counted");
}

#[test]
fn bandwidth_serializes_large_messages() {
    // 1 MiB at 1000 ns/byte = ~1 s of serialization. Use smaller numbers:
    // 100 KiB at 10 ns/byte = 1 ms per message.
    let mut cfg = FabricConfig::test(2);
    cfg.max_payload = 1 << 20;
    cfg.wire = WireModel {
        base_latency_ns: 0,
        ns_per_byte: 10.0,
        jitter_ns: 0,
        put_extra_ns: 0,
    };
    let f = Fabric::new(cfg);
    let a = f.endpoint(0);
    let b = f.endpoint(1);
    let payload = vec![0u8; 100 * 1024];
    let t0 = Instant::now();
    a.try_send(1, 0, &payload, 1).unwrap();
    a.try_send(1, 0, &payload, 2).unwrap();
    let mut n = 0;
    poll_until(
        || {
            if let Some(Event::Recv { .. }) = b.poll() {
                n += 1;
            }
            n == 2
        },
        "two large recvs",
    );
    let dt = t0.elapsed();
    assert!(
        dt >= Duration::from_millis(2),
        "two 1ms-serialization messages must take >= 2ms, took {dt:?}"
    );
}

#[test]
fn bad_rank_and_too_large_are_rejected_synchronously() {
    let f = Fabric::new(FabricConfig::test(2));
    let a = f.endpoint(0);
    assert_eq!(a.try_send(9, 0, b"x", 0), Err(SendError::BadRank));
    let big = vec![0u8; f.config().max_payload + 1];
    assert_eq!(a.try_send(1, 0, &big, 0), Err(SendError::TooLarge));
}

#[test]
fn endpoints_survive_fabric_drop() {
    let f = Fabric::new(FabricConfig::test(2));
    let a = f.endpoint(0);
    drop(f);
    assert_eq!(a.try_send(1, 0, b"x", 0), Err(SendError::Closed));
}

#[test]
fn deregistered_mr_rejects_puts() {
    let f = Fabric::new(FabricConfig::test(2));
    let a = f.endpoint(0);
    let b = f.endpoint(1);
    let mr = b.register_mr(16);
    let key = mr.key();
    assert_eq!(b.registered_mrs(), 1);
    b.deregister_mr(key);
    assert_eq!(b.registered_mrs(), 0);
    a.try_put(1, key, 0, &[1], 77, None).unwrap();
    let mut errored = false;
    poll_until(
        || {
            if let Some(Event::Error { ctx, .. }) = a.poll() {
                assert_eq!(ctx, 77);
                errored = true;
            }
            errored
        },
        "deregistered error",
    );
}

#[test]
fn stats_count_traffic() {
    let f = Fabric::new(FabricConfig::test(2));
    let a = f.endpoint(0);
    let b = f.endpoint(1);
    a.try_send(1, 0, &[0u8; 100], 1).unwrap();
    let mr = b.register_mr(256);
    a.try_put(1, mr.key(), 0, &[0u8; 200], 2, None).unwrap();
    // A put into no region is issued but never lands.
    a.try_put(1, lci_fabric::MrKey(12345), 0, &[0u8; 10], 3, None).unwrap();
    poll_until(|| b.stats().recvs == 1, "recv counted");
    poll_until(|| b.stats().puts_landed == 1, "put landed");
    let s = a.stats();
    assert_eq!(s.sends, 1);
    assert_eq!(s.send_bytes, 100);
    assert_eq!(s.puts, 2);
    assert_eq!(s.put_bytes, 210);
    assert_eq!(s.messages(), 3);
    assert_eq!(s.bytes(), 310);
    // A put counts where it lands, on the target's table only.
    assert_eq!(s.puts_landed, 0);
    assert_eq!(b.stats().puts, 0);
}

#[test]
fn injected_failure_closes_endpoint() {
    let f = Fabric::new(FabricConfig::test(2));
    let a = f.endpoint(0);
    let b = f.endpoint(1);
    a.try_send(1, 0, b"before", 1).unwrap();
    a.inject_failure();
    assert!(a.is_failed());
    assert_eq!(a.try_send(1, 0, b"after", 2), Err(SendError::Closed));
    // The in-flight message still arrives (it already left the NIC).
    poll_until(
        || matches!(b.poll(), Some(Event::Recv { .. })),
        "pre-failure message",
    );
}

#[test]
fn peers_of_failed_host_hit_rnr_once_buffers_fill() {
    let mut cfg = FabricConfig::test(2)
        .with_rx_buffers(2)
        .with_rnr_retry_limit(1)
        .with_injection_depth(64);
    cfg.rnr_delay_ns = 1_000;
    let f = Fabric::new(cfg);
    let a = f.endpoint(0);
    let b = f.endpoint(1);
    b.inject_failure(); // b's software dies: nothing drains its buffers
    let mut fatal = false;
    for i in 0..50 {
        if a.try_send(1, 0, b"x", i).is_err() {
            fatal = true;
            break;
        }
        if let Some(Event::Error { .. }) = a.poll() {
            fatal = true;
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(fatal, "sender must eventually observe the dead peer");
}

#[test]
fn threaded_reorder_phase_never_strands_the_tail() {
    // A reorder window bigger than the number of in-flight messages can
    // only fill partially; the wire's idle rule must still flush the held
    // tail instead of waiting forever for traffic that never comes. This
    // is what lets equivalence suites run whole algorithms under a
    // phase that spans the entire run.
    use lci_fabric::{Fault, FaultPlan};
    let plan = FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Reorder { window: 8 });
    let f = Fabric::new(FabricConfig::test(2).with_seed(99).with_fault_plan(plan));
    let a = f.endpoint(0);
    let b = f.endpoint(1);
    // 3 messages < window 8: without the idle release they would be held
    // until shutdown and the poll below would time out.
    for i in 0..3u64 {
        a.try_send(1, i << 8, &i.to_le_bytes(), i).unwrap();
    }
    let mut got = 0usize;
    poll_until(
        || {
            while let Some(ev) = b.poll() {
                if matches!(ev, Event::Recv { .. }) {
                    got += 1;
                }
            }
            got == 3
        },
        "reorder-held tail",
    );
    assert!(b.stats().fault_reordered > 0, "phase never engaged");
}

/// A context-0 send is unsignaled: whatever becomes of it — delivered,
/// dropped, blackholed, eaten by a crash, or retried after receiver-not-ready
/// bounces — it posts no `SendDone`, while a send with a context posts
/// exactly one, and both give their injection slot back.
#[test]
fn unsignaled_sends_post_no_completion_in_any_outcome() {
    use lci_fabric::{Fault, FaultPlan};
    let forever = u64::MAX / 2;
    let outcomes = [
        ("delivered", FaultPlan::none()),
        ("dropped", FaultPlan::none().with_phase(0, forever, Fault::Drop { prob_ppm: 1_000_000 })),
        ("blackholed", FaultPlan::none().with_phase(0, forever, Fault::Blackhole { peer: 1 })),
        (
            "crashed",
            FaultPlan::none().with_phase(0, forever, Fault::Crash { host: 1, after_packets: 1 }),
        ),
        // The storm outlasts the first deliveries and ends long before
        // an unbounded retry limit could matter.
        ("rnr-retried", FaultPlan::none().with_phase(0, 20_000, Fault::RnrStorm { target: 1 })),
    ];
    for (outcome, plan) in outcomes {
        let f = Fabric::new_manual(FabricConfig::deterministic(2, 3).with_fault_plan(plan));
        let (a, b) = (f.endpoint(0), f.endpoint(1));
        a.try_send(1, 1, b"unsignaled", 0).unwrap();
        a.try_send(1, 2, b"signaled", 7).unwrap();
        f.drain();
        let mut events = Vec::new();
        while let Some(ev) = a.poll() {
            events.push(ev);
        }
        let done: Vec<u64> = events
            .iter()
            .filter_map(|ev| match ev {
                Event::SendDone { ctx } => Some(*ctx),
                _ => None,
            })
            .collect();
        assert_eq!(done, [7], "{outcome}: completions {events:?}");
        assert_eq!(a.inflight(), 0, "{outcome}: injection slots");
        let recvs = std::iter::from_fn(|| b.poll())
            .filter(|ev| matches!(ev, Event::Recv { .. }))
            .count();
        let s = a.stats();
        let eaten = s.fault_dropped + s.fault_blackholed + s.fault_crashed;
        let bounced = s.rnr_retries;
        match outcome {
            "delivered" => assert_eq!((recvs, eaten, bounced), (2, 0, 0)),
            "rnr-retried" => assert!(recvs == 2 && eaten == 0 && bounced >= 2, "{s:?}"),
            _ => assert!(recvs == 0 && eaten >= 2, "{outcome}: {recvs} arrived, {s:?}"),
        }
    }
}
