//! The wall-clock fabric has no wire thread: whoever polls an endpoint (or
//! injects into a full queue) runs the wire. These tests pin down what that
//! means for a caller — nothing moves until someone drives, anyone's drive
//! moves everyone's traffic, and concurrent drivers lose nothing.

use lci_fabric::{Event, Fabric, FabricConfig, SendError, WireModel};
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

#[test]
fn nothing_moves_until_an_endpoint_polls_and_any_poll_moves_everything() {
    let _serial = serial();
    let f = Fabric::new(FabricConfig::test(2));
    let (a, b) = (f.endpoint(0), f.endpoint(1));
    let credits = b.rx_credits();
    a.try_send(1, 7, b"lazy", 3).unwrap();
    std::thread::sleep(Duration::from_millis(2));
    assert_eq!(b.rx_credits(), credits, "delivered with nobody driving");
    assert_eq!(a.inflight(), 1);
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
    let f = Fabric::new(FabricConfig::test(2).with_injection_depth(depth));
    let a = f.endpoint(0);
    // Nobody polls, no other thread runs: the full injection queue itself
    // must drive the wire to get its slots back.
    for i in 0..10 * depth as u64 {
        assert_eq!(a.try_send(1, i, b"x", i), Ok(()), "send {i}");
        assert!(a.inflight() <= depth);
    }
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
    let mut cfg = FabricConfig::test(2).with_time_scale(1.0);
    cfg.wire = WireModel {
        base_latency_ns: 50_000,
        ns_per_byte: 0.0,
        jitter_ns: 0,
        put_extra_ns: 0,
    };
    let f = Fabric::new(cfg);
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
    let f = Fabric::new(FabricConfig::test(2).with_injection_depth(64));
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
                while let Err(e) = a.try_send(1, i, &i.to_le_bytes(), i) {
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
