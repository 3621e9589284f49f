//! The wall-clock fabric has no wire thread: whoever polls an endpoint (or
//! injects into a full queue) runs the wire. These tests pin down what that
//! means for a caller — on a wire with latency or a fault plan nothing moves
//! until someone drives, anyone's drive moves everyone's traffic, and
//! threads that drive it at once lose nothing — and what it means on the
//! instant wire (`FabricConfig::test`: no latency, no fault plan), where an
//! operation is delivered by the call that injects it.

use lci_fabric::{Event, Fabric, FabricConfig, Fault, FaultPlan, SendError, WireModel};
use lci_trace::{Counter, EventKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The tests of this binary run one at a time, so that the thread count
/// below is disturbed by nothing but the test harness itself.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn construction_starts_no_thread() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // no procfs: nothing to count with
    }
    let _serial = serial();
    // The harness may start another test's thread between the two counts;
    // a wire thread per fabric would be there on every attempt.
    let mut kept = Vec::new();
    let unchanged = (0..50).any(|_| {
        let before = process_threads();
        kept.push(Fabric::new(FabricConfig::test(2)));
        let same = process_threads() == before;
        if !same {
            std::thread::sleep(Duration::from_millis(1));
        }
        same
    });
    assert!(
        unchanged,
        "every Fabric::new changed the process thread count"
    );
}

/// A wall-clock wire on which every message takes `latency_ns` (1:1 time).
fn latency_wire(latency_ns: u64) -> FabricConfig {
    let mut cfg = FabricConfig::test(2).with_time_scale(1.0);
    cfg.wire = WireModel {
        base_latency_ns: latency_ns,
        ns_per_byte: 0.0,
        jitter_ns: 0,
        put_extra_ns: 0,
    };
    cfg
}

/// `FabricConfig::test(hosts)` under a fault plan whose one phase never
/// starts: every operation is due at once, as on the instant wire, but takes
/// the lazy path — queued at injection, delivered by a drive.
fn lazy_instant_wire(hosts: usize) -> FabricConfig {
    let plan = FaultPlan::none().with_phase(u64::MAX / 2, 1, Fault::Duplicate);
    FabricConfig::test(hosts).with_fault_plan(plan)
}

#[test]
fn nothing_moves_until_an_endpoint_polls_and_any_poll_moves_everything() {
    let _serial = serial();
    let f = Fabric::new(latency_wire(100_000));
    let (a, b) = (f.endpoint(0), f.endpoint(1));
    let credits = b.rx_credits();
    a.try_send(1, 7, b"lazy", 3).unwrap();
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(b.rx_credits(), credits, "delivered with nobody driving");
    assert_eq!(a.inflight(), 1);
    // The first drive puts the message on the wire, due 100 µs later; long
    // after that, it still waits for the next one.
    assert!(a.poll().is_none());
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(b.rx_credits(), credits, "delivered with nobody driving");
    // The sender's poll alone delivers at the receiver too.
    assert!(matches!(a.poll(), Some(Event::SendDone { ctx: 3 })));
    assert_eq!(b.rx_credits(), credits - 1);
    match b.poll() {
        Some(Event::Recv {
            src: 0,
            header: 7,
            data,
        }) => assert_eq!(&*data, b"lazy"),
        other => panic!("expected the message, got {other:?}"),
    }
}

#[test]
fn a_sender_that_never_polls_is_admitted_again() {
    let _serial = serial();
    let depth = 8;
    let f = Fabric::new(lazy_instant_wire(2).with_injection_depth(depth));
    let a = f.endpoint(0);
    // Nobody polls, no other thread runs: the full injection queue itself
    // must drive the wire to get its slots back.
    for i in 0..10 * depth as u64 {
        assert_eq!(a.try_send(1, i, b"x", i), Ok(()), "send {i}");
        assert!(a.inflight() <= depth);
    }
    assert_eq!(a.inflight(), depth, "the last sends still wait for a drive");
    assert_eq!(a.stats().backpressure, 0);
}

#[test]
fn back_pressure_is_still_reported_when_driving_frees_nothing() {
    let _serial = serial();
    let mut cfg = FabricConfig::test(2)
        .with_injection_depth(2)
        .with_time_scale(1.0);
    cfg.wire = WireModel {
        base_latency_ns: 50_000_000, // nothing is due for 50 ms
        ns_per_byte: 0.0,
        jitter_ns: 0,
        put_extra_ns: 0,
    };
    let f = Fabric::new(cfg);
    let a = f.endpoint(0);
    a.try_send(1, 0, b"x", 0).unwrap();
    a.try_send(1, 1, b"x", 1).unwrap();
    assert_eq!(a.try_send(1, 2, b"x", 2), Err(SendError::Backpressure));
    assert_eq!(a.stats().backpressure, 1);
}

#[test]
fn latency_is_a_lower_bound_on_lazy_delivery() {
    let _serial = serial();
    let f = Fabric::new(latency_wire(50_000));
    let (a, b) = (f.endpoint(0), f.endpoint(1));
    for i in 0..200u64 {
        let t0 = Instant::now();
        a.try_send(1, i, b"x", i).unwrap();
        let deadline = t0 + Duration::from_secs(10);
        loop {
            // Both sides hammer the wire; neither may see it early.
            let _ = a.poll();
            if let Some(Event::Recv { header, .. }) = b.poll() {
                assert_eq!(header, i);
                break;
            }
            assert!(Instant::now() < deadline, "message {i} never arrived");
        }
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_micros(50), "message {i} took {dt:?}");
    }
}

#[test]
fn concurrent_drivers_lose_nothing_and_keep_per_source_order() {
    let _serial = serial();
    const N: u64 = 10_000;
    let f = Fabric::new(lazy_instant_wire(2).with_injection_depth(64));
    let (a, b) = (f.endpoint(0), f.endpoint(1));
    let (recvd, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let start = Barrier::new(3);
    let deadline = Instant::now() + Duration::from_secs(60);
    let seen: Vec<Vec<u64>> = std::thread::scope(|s| {
        let pollers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    start.wait();
                    while recvd.load(Ordering::Relaxed) < N as usize
                        || done.load(Ordering::Relaxed) < N as usize
                    {
                        assert!(Instant::now() < deadline, "traffic lost");
                        if let Some(Event::Recv { header, .. }) = b.poll() {
                            mine.push(header);
                            recvd.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(ev) = a.poll() {
                            assert!(matches!(ev, Event::SendDone { .. }), "{ev:?}");
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    mine
                })
            })
            .collect();
        s.spawn(|| {
            start.wait();
            for i in 0..N {
                // Signaled (context ≠ 0): the pollers count completions.
                while let Err(e) = a.try_send(1, i, &i.to_le_bytes(), i + 1) {
                    assert_eq!(e, SendError::Backpressure);
                    assert!(Instant::now() < deadline, "injection wedged");
                    std::thread::yield_now();
                }
            }
        });
        pollers
            .into_iter()
            .map(|p| p.join().expect("poller"))
            .collect()
    });
    // One completion queue pops in order, so each poller's share of it is
    // in order; together the shares are every message exactly once.
    for mine in &seen {
        assert!(
            mine.windows(2).all(|w| w[0] < w[1]),
            "per-source order broken"
        );
    }
    let mut all: Vec<u64> = seen.concat();
    all.sort_unstable();
    assert_eq!(all, (0..N).collect::<Vec<_>>());
    assert_eq!(a.inflight(), 0);
}

#[test]
fn the_instant_wire_delivers_a_send_at_injection() {
    let _serial = serial();
    let f = Fabric::new(FabricConfig::test(2));
    let (a, b) = (f.endpoint(0), f.endpoint(1));
    let credits = b.rx_credits();
    a.try_send(1, 7, b"now", 3).unwrap();
    // Nobody has polled, and everything is where a delivery leaves it.
    assert_eq!(b.rx_credits(), credits - 1);
    assert_eq!(a.inflight(), 0);
    assert_eq!(b.counters().get(Counter::FabricRecvs), 1);
    assert_eq!(a.counters().get(Counter::FabricRecvs), 0);
    assert_eq!(a.counters().get(Counter::FabricSends), 1);
    // Unsignaled: delivered all the same, and nothing posted to the sender.
    a.try_send(1, 8, b"quiet", 0).unwrap();
    assert_eq!(b.rx_credits(), credits - 2);
    assert_eq!(a.inflight(), 0);
    let mut sender = VecDeque::new();
    assert_eq!(a.drain_into(&mut sender), 1);
    assert!(
        matches!(sender[0], Event::SendDone { ctx: 3 }),
        "{sender:?}"
    );
    for (header, body) in [(7, &b"now"[..]), (8, b"quiet")] {
        match b.poll() {
            Some(Event::Recv {
                src: 0,
                header: h,
                data,
            }) => assert_eq!((h, &*data), (header, body)),
            other => panic!("expected message {header}, got {other:?}"),
        }
    }
    assert_eq!(b.rx_credits(), credits, "both buffers came back");
}

#[test]
fn the_instant_wire_lands_a_put_at_injection() {
    let _serial = serial();
    let f = Fabric::new(FabricConfig::test(2));
    let (a, b) = (f.endpoint(0), f.endpoint(1));
    let mr = b.register_mr(8);
    a.try_put(1, mr.key(), 2, &[1, 2, 3], 5, Some(99)).unwrap();
    assert_eq!(mr.to_vec(), [0, 0, 1, 2, 3, 0, 0, 0]);
    assert_eq!(a.inflight(), 0);
    assert!(matches!(
        b.poll(),
        Some(Event::PutArrived {
            src: 0,
            imm: 99,
            len: 3,
            epoch: 0
        })
    ));
    assert!(matches!(
        a.poll(),
        Some(Event::PutDone { ctx: 5, epoch: 0 })
    ));
    // A put past the region's end is still the initiator's `BadMr`.
    a.try_put(1, mr.key(), 6, &[7, 7, 7], 6, None).unwrap();
    assert!(matches!(a.poll(), Some(Event::Error { ctx: 6, .. })));
    assert_eq!(a.stats().errors, 1);
    assert_eq!(mr.to_vec(), [0, 0, 1, 2, 3, 0, 0, 0]);
}

#[test]
fn a_receiver_without_credit_sends_the_instant_wire_down_the_lazy_path() {
    let _serial = serial();
    let f = Fabric::new(FabricConfig::test(3).with_rx_buffers(1));
    let (a, b, c) = (f.endpoint(0), f.endpoint(1), f.endpoint(2));
    a.try_send(1, 0, b"first", 1).unwrap();
    assert_eq!(b.rx_credits(), 0, "the first send took the only buffer");
    a.try_send(1, 1, b"second", 2).unwrap();
    assert_eq!(a.inflight(), 1, "no credit: the second send is on the wire");
    assert_eq!(a.counters().get(Counter::FabricRnrRetries), 0);
    // While the wire holds it, nothing overtakes it: a send to a third host,
    // which has a buffer, waits for a drive too.
    a.try_send(2, 2, b"third", 0).unwrap();
    assert_eq!(c.rx_credits(), 1);
    assert_eq!(a.inflight(), 2);
    // A drive bounces the second send off host 1 and delivers the third.
    assert!(matches!(a.poll(), Some(Event::SendDone { ctx: 1 })));
    assert!(a.poll().is_none());
    assert!(a.counters().get(Counter::FabricRnrRetries) >= 1);
    assert_eq!(c.rx_credits(), 0);
    assert!(matches!(c.poll(), Some(Event::Recv { header: 2, .. })));
    // Host 1 frees its buffer; the retry gets it once someone drives.
    assert!(matches!(b.poll(), Some(Event::Recv { header: 0, .. })));
    let deadline = Instant::now() + Duration::from_secs(10);
    let second = loop {
        if let Some(ev) = b.poll() {
            break ev;
        }
        assert!(Instant::now() < deadline, "the bounced send never arrived");
    };
    assert!(
        matches!(
            second,
            Event::Recv {
                src: 0,
                header: 1,
                ..
            }
        ),
        "{second:?}"
    );
    drop(second);
    assert!(matches!(a.poll(), Some(Event::SendDone { ctx: 2 })));
    assert_eq!(a.inflight(), 0);
    // The wire is empty again, so the next send is delivered at injection.
    a.try_send(1, 3, b"fourth", 0).unwrap();
    assert_eq!(b.rx_credits(), 0);
    assert_eq!(a.inflight(), 0);
}

#[test]
fn a_fault_plan_keeps_the_instant_wire_lazy() {
    let _serial = serial();
    let f = Fabric::new(lazy_instant_wire(2));
    let (a, b) = (f.endpoint(0), f.endpoint(1));
    let credits = b.rx_credits();
    let mr = b.register_mr(4);
    a.try_send(1, 7, b"lazy", 3).unwrap();
    a.try_put(1, mr.key(), 0, &[1, 2, 3, 4], 4, None).unwrap();
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(b.rx_credits(), credits, "delivered with nobody driving");
    assert_eq!(mr.to_vec(), [0; 4], "written with nobody driving");
    assert_eq!(a.inflight(), 2);
    assert!(matches!(a.poll(), Some(Event::SendDone { ctx: 3 })));
    assert!(matches!(a.poll(), Some(Event::PutDone { ctx: 4, .. })));
    assert_eq!(mr.to_vec(), [1, 2, 3, 4]);
    assert!(matches!(b.poll(), Some(Event::Recv { header: 7, .. })));
}

/// Each host's thread sends the other `N` messages in bursts, every other
/// one signaled, draining its own queue all along and starting a burst once
/// the last one is done with. A burst outruns the receiver's six buffers, so
/// the threads keep switching between delivering at injection and queueing
/// behind a bounced send while both drive the wire. Every message arrives
/// exactly once, every signaled send completes once, and every slot and
/// receive credit comes back.
///
/// Order: the wire retries a bounced send later, and what was sent after it
/// may pass it, on every wall-clock wire. What must hold is that a message
/// delivered at injection passes nothing its sender sent before it. A sender
/// tells which of its sends those were from its own thread's event ring: a
/// `try_send` that delivered logged the `Recv` after its `Send`.
#[test]
fn two_hosts_injecting_at_each_other_lose_nothing() {
    let _serial = serial();
    const N: usize = 20_000;
    const BURST: usize = 8;
    const BUFFERS: usize = 6;
    let f = Fabric::new(FabricConfig::test(2).with_rx_buffers(BUFFERS));
    let eps = f.endpoints();
    let deadline = Instant::now() + Duration::from_secs(60);
    // Per host: what it received, in order, and which of its sends it
    // delivered at injection.
    let hosts: Vec<(Vec<u64>, Vec<bool>)> = std::thread::scope(|s| {
        let threads: Vec<_> = eps
            .iter()
            .enumerate()
            .map(|(me, ep)| {
                s.spawn(move || {
                    let peer = 1 - me as u16;
                    let (mut seen, mut instant, mut done) = (Vec::new(), Vec::new(), 0);
                    let mut buf = VecDeque::new();
                    while instant.len() < N || seen.len() < N || done < N / 2 {
                        assert!(Instant::now() < deadline, "host {me}: traffic lost");
                        // A new burst once the last one is done with.
                        let end = match ep.inflight() {
                            0 => (instant.len() + BURST).min(N),
                            _ => instant.len(),
                        };
                        while instant.len() < end {
                            let i = instant.len() as u64;
                            let sent = ep.try_send(peer, i, &i.to_le_bytes(), (i % 2) * (i + 1));
                            let logged = lci_trace::with_ring(|r| r.drain()).expect("ring");
                            match sent {
                                Ok(()) => instant
                                    .push(logged.last().is_some_and(|e| e.kind == EventKind::Recv)),
                                Err(e) => {
                                    assert_eq!(e, SendError::Backpressure);
                                    break;
                                }
                            }
                        }
                        ep.drain_into(&mut buf);
                        for ev in buf.drain(..) {
                            match ev {
                                Event::Recv { src, header, data } => {
                                    assert_eq!(src, peer);
                                    assert_eq!(&*data, &header.to_le_bytes());
                                    seen.push(header);
                                }
                                Event::SendDone { ctx } => {
                                    assert!(ctx % 2 == 0 && ctx > 0, "ctx {ctx}");
                                    done += 1;
                                }
                                other => panic!("host {me}: {other:?}"),
                            }
                        }
                    }
                    assert_eq!(done, N / 2, "host {me}");
                    (seen, instant)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("host"))
            .collect()
    });
    let mut at_injection = 0;
    for (me, ep) in eps.iter().enumerate() {
        assert_eq!(ep.inflight(), 0);
        assert_eq!(ep.rx_credits(), BUFFERS as i64);
        assert_eq!(ep.counters().get(Counter::FabricRecvs), N as u64);
        let (seen, instant) = (&hosts[me].0, &hosts[1 - me].1);
        // `next` is the lowest message not yet arrived.
        let (mut arrived, mut next) = (vec![false; N], 0);
        for &i in seen {
            let i = i as usize;
            assert!(!arrived[i], "host {me}: message {i} twice");
            assert!(
                !instant[i] || next == i,
                "host {me}: message {i}, delivered at injection, passed message {next}"
            );
            arrived[i] = true;
            while next < N && arrived[next] {
                next += 1;
            }
        }
        assert_eq!(next, N, "host {me}: lost message {next}");
        at_injection += instant.iter().filter(|&&d| d).count();
    }
    let bounced: u64 = eps
        .iter()
        .map(|ep| ep.counters().get(Counter::FabricRnrRetries))
        .sum();
    assert!(bounced > 0, "no send fell back to the wire");
    assert!(at_injection > 0, "no send was delivered at injection");
}
