//! Protocol-level integration tests for the LCI runtime.
//!
//! Nothing moves unless someone calls [`Device::progress`]: every waiting
//! loop below drives the devices its thread plays, then yields.

use bytes::Bytes;
use lci::{Device, EnqError, LciConfig, LciWorld, RecvRequest, SendRequest};
use lci_fabric::FabricConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One wait step: drive every device in `devs`, then yield.
fn drive(devs: &[&Device]) {
    for d in devs {
        d.progress();
    }
    std::thread::yield_now();
}

fn send_blocking(dev: &Device, data: Bytes, dst: u16, tag: u32, devs: &[&Device]) -> SendRequest {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match dev.send_enq(data.clone(), dst, tag) {
            Ok(r) => return r,
            Err(e) if e.is_retryable() => {
                assert!(Instant::now() < deadline, "send_enq starved");
                drive(devs);
            }
            Err(e) => panic!("send_enq failed: {e}"),
        }
    }
}

fn recv_blocking(dev: &Device, devs: &[&Device]) -> RecvRequest {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(r) = dev.recv_deq() {
            return r;
        }
        assert!(Instant::now() < deadline, "recv_deq starved");
        drive(devs);
    }
}

fn wait_done(req: &RecvRequest, devs: &[&Device]) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !req.is_done() {
        assert!(!req.is_error(), "request errored");
        assert!(Instant::now() < deadline, "request never completed");
        drive(devs);
    }
}

#[test]
fn eager_roundtrip() {
    let w = LciWorld::new(FabricConfig::test(2), LciConfig::default());
    let a = w.device(0);
    let b = w.device(1);
    let req = send_blocking(&a, Bytes::from_static(b"tiny"), 1, 3, &[&a, &b]);
    assert!(req.is_done(), "eager sends complete at initiation");
    let r = recv_blocking(&b, &[&a, &b]);
    assert!(r.is_done());
    assert_eq!(r.src(), 0);
    assert_eq!(r.tag(), 3);
    assert_eq!(r.len(), 4);
    assert_eq!(r.take_data().unwrap(), b"tiny");
}

#[test]
fn zero_length_message() {
    let w = LciWorld::new(FabricConfig::test(2), LciConfig::default());
    let a = w.device(0);
    let b = w.device(1);
    send_blocking(&a, Bytes::new(), 1, 9, &[&a, &b]);
    let r = recv_blocking(&b, &[&a, &b]);
    assert!(r.is_done());
    assert!(r.is_empty());
    assert_eq!(r.take_data().unwrap(), Vec::<u8>::new());
}

#[test]
fn rendezvous_roundtrip() {
    let w = LciWorld::new(FabricConfig::test(2), LciConfig::default());
    let a = w.device(0);
    let b = w.device(1);
    // Well above the 8 KiB eager limit.
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let req = send_blocking(&a, Bytes::from(payload.clone()), 1, 11, &[&a, &b]);
    let r = recv_blocking(&b, &[&a, &b]);
    assert_eq!(r.src(), 0);
    assert_eq!(r.tag(), 11);
    assert_eq!(r.len(), payload.len());
    wait_done(&r, &[&a, &b]);
    assert_eq!(r.take_data().unwrap(), payload);
    // Sender request completes once the put finishes.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !req.is_done() {
        assert!(Instant::now() < deadline, "send never completed");
        drive(&[&a, &b]);
    }
    assert_eq!(a.stats().rdv_opened, 1);
    // Landing region must be deregistered after completion.
    assert_eq!(b.endpoint().registered_mrs(), 0);
}

#[test]
fn mixed_sizes_interleaved() {
    let w = LciWorld::new(FabricConfig::test(2), LciConfig::default());
    let a = w.device(0);
    let b = w.device(1);
    let sizes = [1usize, 100, 8 << 10, (8 << 10) + 1, 50_000, 5, 200_000];
    let mut sends = Vec::new();
    for (i, &s) in sizes.iter().enumerate() {
        let data: Vec<u8> = std::iter::repeat_n((i + 1) as u8, s).collect();
        sends.push(send_blocking(&a, Bytes::from(data), 1, i as u32, &[&a, &b]));
    }
    let mut seen = vec![false; sizes.len()];
    for _ in 0..sizes.len() {
        let r = recv_blocking(&b, &[&a, &b]);
        wait_done(&r, &[&a, &b]);
        let tag = r.tag() as usize;
        assert!(!seen[tag], "duplicate message for tag {tag}");
        seen[tag] = true;
        let data = r.take_data().unwrap();
        assert_eq!(data.len(), sizes[tag]);
        assert!(data.iter().all(|&x| x == (tag + 1) as u8));
    }
    assert!(seen.iter().all(|&x| x));
    for s in &sends {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !s.is_done() {
            assert!(Instant::now() < deadline);
            drive(&[&a, &b]);
        }
    }
}

#[test]
fn pool_exhaustion_is_retryable_not_fatal() {
    let cfg = LciConfig::default().with_packet_count(4);
    let w = LciWorld::new(FabricConfig::test(2), cfg);
    let a = w.device(0);
    let b = w.device(1);
    // Fire many more messages than there are packets; every NoPacket is
    // retried. Nothing crashes and everything arrives. Each host is a thread
    // that drives its own device.
    const N: usize = 500;
    let receiver = std::thread::spawn(move || {
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(30);
        while got < N {
            if let Some(r) = b.recv_deq() {
                assert!(r.is_done());
                got += 1;
            } else {
                drive(&[&b]);
            }
            assert!(Instant::now() < deadline, "receiver starved at {got}/{N}");
        }
    });
    for i in 0..N {
        send_blocking(&a, Bytes::from(vec![i as u8; 64]), 1, (i % 1000) as u32, &[&a]);
    }
    // Host 0 keeps driving until host 1 has everything it sent.
    while !receiver.is_finished() {
        drive(&[&a]);
    }
    receiver.join().unwrap();
    assert!(
        a.stats().enq_rejected > 0,
        "with 4 packets and 500 sends, some enqueues must have been rejected"
    );
    assert!(!a.is_failed());
}

#[test]
fn all_to_all_many_threads() {
    const HOSTS: usize = 4;
    const THREADS: usize = 3;
    const PER_THREAD: usize = 100;
    let w = LciWorld::new(
        FabricConfig::test(HOSTS),
        LciConfig::for_hosts(HOSTS),
    );
    // Receivers that have everything; each keeps driving its device until
    // all have, since a peer may still need its acks.
    let finished = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for h in 0..HOSTS {
        let dev = w.device(h);
        // Sender threads, each driving its own host's device when refused.
        for t in 0..THREADS {
            let dev = dev.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    for dst in 0..HOSTS {
                        if dst == h {
                            continue;
                        }
                        let tag = (t * PER_THREAD + i) as u32;
                        let body = vec![h as u8, dst as u8, t as u8];
                        let deadline = Instant::now() + Duration::from_secs(30);
                        loop {
                            match dev.send_enq(Bytes::from(body.clone()), dst as u16, tag) {
                                Ok(_) => break,
                                Err(e) if e.is_retryable() => {
                                    assert!(Instant::now() < deadline);
                                    drive(&[&dev]);
                                }
                                Err(e) => panic!("{e}"),
                            }
                        }
                    }
                }
            }));
        }
        // Receiver thread: expects (HOSTS-1) * THREADS * PER_THREAD messages.
        let dev = w.device(h);
        let finished = Arc::clone(&finished);
        handles.push(std::thread::spawn(move || {
            let expect = (HOSTS - 1) * THREADS * PER_THREAD;
            let mut got = 0;
            let deadline = Instant::now() + Duration::from_secs(60);
            while got < expect {
                if let Some(r) = dev.recv_deq() {
                    assert!(r.is_done());
                    let data = r.take_data().unwrap();
                    assert_eq!(data[1] as usize, h, "delivered to wrong host");
                    assert_eq!(data[0], r.src() as u8);
                    got += 1;
                } else {
                    drive(&[&dev]);
                }
                assert!(
                    Instant::now() < deadline,
                    "host {h} starved at {got}/{expect}"
                );
            }
            finished.fetch_add(1, Ordering::AcqRel);
            while finished.load(Ordering::Acquire) < HOSTS {
                assert!(Instant::now() < deadline, "host {h} waited for its peers");
                drive(&[&dev]);
            }
        }));
    }
    for hd in handles {
        hd.join().unwrap();
    }
}

#[test]
fn first_packet_policy_no_ordering_across_sources() {
    // With no ordering guarantee we can only assert *per-source* FIFO for
    // eager messages on a FIFO wire — and that messages from both sources
    // interleave freely. This documents the first-packet policy.
    let w = LciWorld::new(FabricConfig::test(3), LciConfig::default());
    let c = w.device(2);
    let a = w.device(0);
    let b = w.device(1);
    let all = [&a, &b, &c];
    for i in 0..50u32 {
        send_blocking(&a, Bytes::from(vec![0]), 2, i, &all);
        send_blocking(&b, Bytes::from(vec![1]), 2, i, &all);
    }
    let mut last_tag = [None::<u32>, None::<u32>];
    for _ in 0..100 {
        let r = recv_blocking(&c, &all);
        let src = r.src() as usize;
        if let Some(prev) = last_tag[src] {
            assert!(r.tag() > prev, "per-source arrival order violated");
        }
        last_tag[src] = Some(r.tag());
    }
}

#[test]
fn too_large_tag_rejected() {
    let w = LciWorld::new(FabricConfig::test(2), LciConfig::default());
    let a = w.device(0);
    assert!(matches!(
        a.send_enq(Bytes::from_static(b"x"), 1, lci::MAX_TAG + 1),
        Err(EnqError::TooLarge)
    ));
}

#[test]
fn manual_progress_world() {
    // Nothing moves until progress is called.
    let w = LciWorld::new(FabricConfig::test(2), LciConfig::default());
    let a = w.device(0);
    let b = w.device(1);
    send_blocking(&a, Bytes::from_static(b"manual"), 1, 0, &[&a]);
    std::thread::sleep(Duration::from_millis(10));
    assert!(b.recv_deq().is_none(), "no progress yet, nothing delivered");
    let deadline = Instant::now() + Duration::from_secs(10);
    let r = loop {
        a.progress();
        b.progress();
        if let Some(r) = b.recv_deq() {
            break r;
        }
        assert!(Instant::now() < deadline);
    };
    assert_eq!(r.take_data().unwrap(), b"manual");
}

#[test]
fn rendezvous_under_manual_progress() {
    let w = LciWorld::new(FabricConfig::test(2), LciConfig::default());
    let a = w.device(0);
    let b = w.device(1);
    let payload = vec![0x5Au8; 64 * 1024];
    let req = send_blocking(&a, Bytes::from(payload.clone()), 1, 1, &[&a, &b]);
    let deadline = Instant::now() + Duration::from_secs(10);
    let r = loop {
        a.progress();
        b.progress();
        if let Some(r) = b.recv_deq() {
            break r;
        }
        assert!(Instant::now() < deadline);
    };
    while !(req.is_done() && r.is_done()) {
        a.progress();
        b.progress();
        assert!(Instant::now() < deadline);
    }
    assert_eq!(r.take_data().unwrap(), payload);
}

#[test]
fn emulated_put_mode_rendezvous() {
    // psm2-style rendezvous: the payload streams as pooled fragments and is
    // reassembled at the receiver; no memory region is ever registered.
    let cfg = LciConfig::default().with_put_mode(lci::PutMode::Emulated);
    let w = LciWorld::new(FabricConfig::test(2), cfg);
    let a = w.device(0);
    let b = w.device(1);
    let payload: Vec<u8> = (0..150_000u32).map(|i| (i % 241) as u8).collect();
    let req = send_blocking(&a, Bytes::from(payload.clone()), 1, 4, &[&a, &b]);
    let r = recv_blocking(&b, &[&a, &b]);
    assert_eq!(r.len(), payload.len());
    wait_done(&r, &[&a, &b]);
    assert_eq!(r.take_data().unwrap(), payload);
    let deadline = Instant::now() + Duration::from_secs(20);
    while !req.is_done() {
        assert!(Instant::now() < deadline);
        drive(&[&a, &b]);
    }
    assert_eq!(
        b.endpoint().registered_mrs(),
        0,
        "emulated mode must not register regions"
    );
    assert_eq!(b.endpoint().stats().put_bytes, 0, "no RDMA traffic");
    assert!(
        a.endpoint().stats().sends > 18,
        "150kB / 8kB packets => many fragments, got {}",
        a.endpoint().stats().sends
    );
}

#[test]
fn emulated_put_mixed_with_eager_traffic() {
    let cfg = LciConfig::default()
        .with_put_mode(lci::PutMode::Emulated)
        .with_packet_count(16);
    let w = LciWorld::new(FabricConfig::test(2), cfg);
    let a = w.device(0);
    let b = w.device(1);
    // Interleave small eager messages with two big emulated rendezvous.
    let big1 = vec![1u8; 60_000];
    let big2 = vec![2u8; 40_000];
    send_blocking(&a, Bytes::from(big1.clone()), 1, 100, &[&a, &b]);
    for i in 0..20 {
        send_blocking(&a, Bytes::from(vec![9u8; 32]), 1, i, &[&a, &b]);
    }
    send_blocking(&a, Bytes::from(big2.clone()), 1, 101, &[&a, &b]);

    let mut small = 0;
    let mut bigs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut pending: Vec<RecvRequest> = Vec::new();
    while small < 20 || bigs.len() < 2 {
        assert!(Instant::now() < deadline, "stalled: {small} small, {} big", bigs.len());
        if let Some(r) = b.recv_deq() {
            pending.push(r);
        }
        pending.retain(|r| {
            if r.is_done() {
                let data = r.take_data().unwrap();
                if data.len() == 32 {
                    small += 1;
                } else {
                    bigs.push((r.tag(), data));
                }
                false
            } else {
                true
            }
        });
        drive(&[&a, &b]);
    }
    bigs.sort_by_key(|(t, _)| *t);
    assert_eq!(bigs[0].1, big1);
    assert_eq!(bigs[1].1, big2);
}

/// A rendezvous put that back-pressure deferred is work the sender still
/// owes the wire: until it leaves, the device is not quiescent, or a host
/// that stopped driving progress there would strand its peer's receive.
#[test]
fn a_deferred_rendezvous_put_keeps_its_sender_from_quiescing() {
    use lci_fabric::{Fabric, ReliableConfig, WireModel};
    // One injection slot, an ack owed for every frame, and no jitter, so
    // each step delivers the frame injected first.
    let reliable = ReliableConfig {
        ack_every: 1,
        ..ReliableConfig::default()
    };
    let wire = WireModel {
        jitter_ns: 0,
        ..WireModel::opa()
    };
    let f = Fabric::new_manual(
        FabricConfig::deterministic(2, 0xD1E)
            .with_wire(wire)
            .with_injection_depth(1)
            .with_reliable(reliable),
    );
    let a = Device::new(f.endpoint(0), LciConfig::for_hosts(2));
    let b = Device::new(f.endpoint(1), LciConfig::for_hosts(2));
    let s = a.send_enq(Bytes::from(vec![9u8; 32 << 10]), 1, 2).expect("RTS");
    f.drain();
    b.progress();
    let r = b.recv_deq().expect("host 1 answers the RTS");
    // Host 0's eager message, longer than the RTR and so due after it,
    // holds host 0's one slot when the RTR arrives.
    a.send_enq(Bytes::from(vec![1u8; 1024]), 1, 3).expect("eager");
    assert!(f.step(), "the RTR reaches host 0");
    a.progress();
    assert_eq!(a.endpoint().stats().puts, 0, "the put waits for the slot");
    assert!(f.step(), "the eager message reaches host 1");
    b.progress();
    b.progress(); // host 1 acks it
    a.progress(); // host 0's ack for the RTR takes the slot back
    assert!(f.step(), "host 1's ack reaches host 0");
    a.progress(); // every frame acked, no ack owed, the put still waiting
    assert_eq!(a.endpoint().stats().puts, 0, "the put still waits");
    // Host 0 drives until it calls itself quiescent, then stops.
    let tick = || {
        if !f.step() {
            f.advance_virtual(f.config().reliable.ack_delay_ns);
        }
    };
    for _ in 0..10_000 {
        if a.quiescent() {
            break;
        }
        tick();
        b.progress();
        a.progress();
    }
    assert!(a.quiescent(), "host 0 reached quiescence");
    // Whatever host 0 owed has left: host 1's receive completes without it.
    for _ in 0..10_000 {
        if r.is_done() {
            break;
        }
        tick();
        b.progress();
    }
    assert!(r.is_done(), "host 0 went quiescent with its put still queued");
    assert_eq!(r.take_data().unwrap(), vec![9u8; 32 << 10]);
    a.progress();
    assert!(s.is_done());
}

/// An `RTS` that `recv_deq` cannot answer for want of a packet keeps its
/// place: a message that arrived after it waits behind it, nothing surfaces
/// while no packet is free, and once one frees the `RTS` comes out first.
#[test]
fn a_deferred_rts_surfaces_before_what_arrived_after_it() {
    use lci_fabric::Fabric;
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 0xDEF));
    let a = Device::new(f.endpoint(0), LciConfig::for_hosts(2));
    let b = Device::new(f.endpoint(1), LciConfig::for_hosts(2).with_packet_count(1));
    // Host 1's one packet stays out until host 0 acknowledges the frame in it.
    b.send_enq(Bytes::from_static(b"hold"), 0, 9)
        .expect("host 1's one packet");
    let big = vec![0xA7u8; 32 << 10];
    let s = a.send_enq(Bytes::from(big.clone()), 1, 1).expect("RTS");
    f.drain();
    b.progress();
    assert!(
        b.recv_deq().is_none(),
        "no packet for the RTR: the RTS waits"
    );
    a.send_enq(Bytes::from_static(b"after"), 1, 2)
        .expect("eager");
    f.drain();
    b.progress();
    assert!(
        b.recv_deq().is_none(),
        "still no packet: the eager message waits behind the RTS"
    );
    assert_eq!(b.packets_leased(), 1);
    let tick = || {
        if !f.step() {
            f.advance_virtual(f.config().reliable.ack_delay_ns);
        }
    };
    // Host 0 acknowledges host 1's frame, which frees host 1's packet.
    for _ in 0..1_000 {
        if b.packets_leased() == 0 {
            break;
        }
        a.progress();
        tick();
        b.progress();
    }
    assert_eq!(b.packets_leased(), 0, "host 0's ack frees the packet");
    let r = b.recv_deq().expect("a packet is free");
    assert_eq!(
        (r.tag(), r.is_done()),
        (1, false),
        "the RTS comes out first"
    );
    let e = b.recv_deq().expect("then the eager message");
    assert_eq!(e.tag(), 2);
    assert_eq!(e.take_data().unwrap(), b"after");
    assert!(b.recv_deq().is_none());
    for _ in 0..10_000 {
        if r.is_done() && s.is_done() {
            break;
        }
        tick();
        a.progress();
        b.progress();
    }
    assert!(r.is_done() && s.is_done(), "the rendezvous completes");
    assert_eq!(r.take_data().unwrap(), big);
}
