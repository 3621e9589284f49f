//! The packet lease: a pooled packet is out of the pool from `send_enq`
//! until the frame built in it is acknowledged, its destination is declared
//! dead, or the device rejoins — and while it is parked in the retransmit
//! window nobody writes to it.
//!
//! Everything here runs on the caller-stepped fabric, so each test is a pure
//! function of its seed.

use bytes::Bytes;
use lci::{Device, EnqError, LciConfig};
use lci_fabric::{
    Event, Fabric, FabricConfig, Fault, FaultPlan, RelRecv, ReliableSession, REL_DATA_OFFSET,
};
use lci_trace::Counter;

/// Step the wire (adding virtual time when it is idle, so that ack and
/// retransmission timers can fire) and run both devices' progress, until
/// `done` holds.
fn drive(f: &Fabric, devs: &[&Device], mut done: impl FnMut() -> bool) {
    let mut guard = 0u32;
    while !done() {
        guard += 1;
        assert!(guard < 1_000_000, "the wire never settled");
        if !f.step() {
            f.advance_virtual(f.config().reliable.ack_delay_ns);
        }
        for d in devs {
            d.progress();
        }
    }
}

#[test]
fn pool_is_full_again_after_a_lossy_duplicating_stream_quiesces() {
    let plan = FaultPlan::none()
        .with_phase(0, u64::MAX / 2, Fault::Drop { prob_ppm: 10_000 })
        .with_phase(0, u64::MAX / 2, Fault::Duplicate);
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 0x1EA5E).with_fault_plan(plan));
    let cfg = LciConfig::for_hosts(2);
    let a = Device::new(f.endpoint(0), cfg.clone());
    let b = Device::new(f.endpoint(1), cfg);
    const N: usize = 2_000;
    let (mut sent, mut got) = (0usize, 0usize);
    drive(&f, &[&a, &b], || {
        while sent < N {
            match a.send_enq(Bytes::from(vec![sent as u8; 100]), 1, (sent % 1000) as u32) {
                Ok(_) => sent += 1,
                Err(e) if e.is_retryable() => break,
                Err(e) => panic!("{e}"),
            }
        }
        while let Some(r) = b.recv_deq() {
            assert_eq!(r.take_data().expect("eager").len(), 100);
            got += 1;
        }
        got == N && a.quiescent() && b.quiescent()
    });
    assert!(
        a.endpoint().stats().fault_dropped > 0,
        "the plan dropped something"
    );
    let retransmits = a
        .endpoint()
        .counters()
        .get(Counter::FabricReliableRetransmits);
    assert!(retransmits > 0, "and it was retransmitted");
    assert_eq!(a.packets_leased(), 0, "every lease ended at its ack");
    assert_eq!(b.packets_leased(), 0);
}

#[test]
fn rejoin_with_a_full_window_returns_every_packet() {
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 0x1EA5F));
    let cfg = LciConfig::for_hosts(2);
    let a = Device::new(f.endpoint(0), cfg.clone());
    let b = Device::new(f.endpoint(1), cfg);
    // Fill the window toward host 1 and let the wire deliver: host 0's
    // completion queue now holds the unconsumed SendDones, and nothing has
    // been acknowledged because host 1 has not polled.
    let mut sent = 0;
    while a.send_enq(Bytes::from(vec![7u8; 64]), 1, sent).is_ok() {
        sent += 1;
    }
    assert_eq!(sent as usize, f.config().reliable.window);
    f.drain();
    assert_eq!(
        a.packets_leased(),
        sent as usize,
        "one packet per unacked frame"
    );
    f.respawn(1);
    a.rejoin();
    b.rejoin();
    assert_eq!(
        a.packets_leased(),
        0,
        "the reset window gave its packets back"
    );
    // Nothing was freed twice or lost: the whole pool can be leased again,
    // and the new incarnation carries traffic.
    let mut sent = 0;
    while a.send_enq(Bytes::from(vec![8u8; 64]), 1, sent).is_ok() {
        sent += 1;
    }
    assert_eq!(sent as usize, f.config().reliable.window);
    let mut got = 0;
    drive(&f, &[&a, &b], || {
        while let Some(r) = b.recv_deq() {
            assert_eq!(r.take_data().expect("eager"), [8u8; 64]);
            got += 1;
        }
        got == sent && a.quiescent() && b.quiescent()
    });
    assert_eq!(a.packets_leased(), 0);
}

#[test]
fn peer_death_returns_the_window_and_fails_the_device() {
    let plan = FaultPlan::none().with_phase(0, u64::MAX / 2, Fault::Blackhole { peer: 1 });
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 0x1EA60).with_fault_plan(plan));
    let cfg = LciConfig::for_hosts(2);
    let a = Device::new(f.endpoint(0), cfg);
    let mut sent = 0;
    while a.send_enq(Bytes::from(vec![9u8; 64]), 1, sent).is_ok() {
        sent += 1;
    }
    assert_eq!(a.packets_leased(), f.config().reliable.window);
    let mut guard = 0;
    while !a.is_failed() {
        guard += 1;
        assert!(guard < 10_000, "peer death must be bounded");
        f.advance_virtual(f.config().reliable.rto_cap_ns);
        a.progress();
        f.drain();
    }
    assert_eq!(a.packets_leased(), 0, "a dead peer's window is given back");
    assert_eq!(
        a.send_enq(Bytes::from_static(b"late"), 1, 0).unwrap_err(),
        EnqError::Closed
    );
    // Rejoining a device whose window is already empty frees nothing twice,
    // and the device sends again (into the same blackhole).
    f.respawn(1);
    a.rejoin();
    assert_eq!(a.packets_leased(), 0);
    assert!(a.send_enq(Bytes::from_static(b"reopened"), 1, 0).is_ok());
    assert_eq!(a.packets_leased(), 1);
}

#[test]
fn a_parked_frame_is_retransmitted_byte_for_byte_after_the_pool_has_cycled() {
    // Host 0 is a device with a four-packet pool; host 1 is a bare endpoint
    // with a session of its own, so the test sees the wire bytes and decides
    // what gets acknowledged.
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 0x1EA61));
    let a = Device::new(f.endpoint(0), LciConfig::default().with_packet_count(4));
    let eb = f.endpoint(1);
    let rb = ReliableSession::new(&eb);
    // Deliver what is in flight to host 1 and classify (and so acknowledge)
    // the payloads `admit` picks. Returns all of them, raw, in arrival order.
    let deliver = |admit: &dyn Fn(&[u8]) -> bool| {
        f.drain();
        let mut seen = Vec::new();
        while let Some(ev) = eb.poll() {
            if let Event::Recv { src, header, data } = ev {
                if admit(&data) {
                    rb.on_recv(&eb, src, header, &data);
                }
                seen.push((header, data.to_vec()));
            }
        }
        seen
    };
    let send = |fill: u8, tag: u32| loop {
        match a.send_enq(Bytes::from(vec![fill; 48]), 1, tag) {
            Ok(_) => break,
            Err(e) if e.is_retryable() => {
                // Out of packets: let host 1's acks come back.
                f.advance_virtual(f.config().reliable.ack_delay_ns + 1);
                rb.pump(&eb);
                f.drain();
                a.progress();
            }
            Err(e) => panic!("{e}"),
        }
    };
    // The first frame arrives, but host 1 never classifies it: its packet
    // stays parked in host 0's window.
    send(0xAA, 1);
    let first = deliver(&|_| false).pop().expect("first frame delivered");
    assert_eq!(&first.1[REL_DATA_OFFSET..], &[0xAA; 48]);
    // Thirty-two later sends go through the other three packets many times
    // over, each acknowledged (selectively: the hole at sequence 0 stays).
    // Whenever the parked frame's timer fires meanwhile, what goes out again
    // is what went out first (a frame starts with its sequence number).
    let is_first = |bytes: &[u8]| bytes[..8] == first.1[..8];
    for i in 0..32u8 {
        send(i, 2 + i as u32);
        for frame in deliver(&|bytes| !is_first(bytes)) {
            assert_eq!(
                is_first(&frame.1),
                frame == first,
                "bit-identical retransmission"
            );
        }
    }
    assert!(
        a.packets_leased() >= 1,
        "the parked frame still holds its packet"
    );
    // And once more now that every other packet has been reused.
    let mut again = 0;
    let mut guard = 0;
    while again == 0 {
        guard += 1;
        assert!(guard < 1_000, "the retransmission timer never fired");
        f.advance_virtual(f.config().reliable.rto_cap_ns);
        a.progress();
        for frame in deliver(&|bytes| !is_first(bytes)) {
            assert_eq!(
                is_first(&frame.1),
                frame == first,
                "bit-identical retransmission"
            );
            again += is_first(&frame.1) as u32;
        }
    }
    // Acknowledge it at last: the lease ends and the pool is whole.
    assert_eq!(rb.on_recv(&eb, 0, first.0, &first.1), RelRecv::Data);
    f.advance_virtual(f.config().reliable.ack_delay_ns + 1);
    rb.pump(&eb);
    f.drain();
    a.progress();
    assert!(a.quiescent());
    assert_eq!(a.packets_leased(), 0);
}
