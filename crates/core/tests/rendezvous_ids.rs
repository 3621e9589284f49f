//! Rendezvous ids: a rendezvous names its requests by ids parked in the
//! device's table, so whatever comes back naming one — an RTR, a fragment, a
//! put's completion — is looked up, never trusted. An id that names nothing
//! is dropped and counted, and a rejoin fails every request a discarded
//! rendezvous left open.
//!
//! Everything here runs on the caller-stepped fabric, so each test is a pure
//! function of its seed.

use bytes::Bytes;
use lci::protocol::{self, PacketType};
use lci::{Device, LciConfig};
use lci_fabric::{
    Endpoint, Event, Fabric, FabricConfig, RelRecv, ReliableSession, REL_DATA_OFFSET,
};
use lci_trace::Counter;

/// Above the default eager limit: every message this size is a rendezvous.
const BIG: usize = 32 << 10;

/// Step the wire (adding virtual time when it is idle, so that ack and
/// retransmission timers can fire) and run the devices' progress, until
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
fn rejoin_fails_a_rendezvous_left_open_in_each_direction() {
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 0x1D5));
    let cfg = LciConfig::for_hosts(2);
    let a = Device::new(f.endpoint(0), cfg.clone());
    let b = Device::new(f.endpoint(1), cfg);
    // Each host opens a rendezvous toward the other and answers the other's
    // RTS; both RTRs are still on the wire when the incarnation ends.
    let sa = a
        .send_enq(Bytes::from(vec![1u8; BIG]), 1, 1)
        .expect("RTS 0 -> 1");
    let sb = b
        .send_enq(Bytes::from(vec![2u8; BIG]), 0, 2)
        .expect("RTS 1 -> 0");
    f.drain();
    a.progress();
    b.progress();
    let ra = a.recv_deq().expect("host 1's RTS at host 0");
    let rb = b.recv_deq().expect("host 0's RTS at host 1");
    assert!(!sa.is_done() && !rb.is_done() && !sb.is_done() && !ra.is_done());
    f.respawn(1);
    a.rejoin();
    b.rejoin();
    assert!(
        sa.is_error() && rb.is_error(),
        "0 -> 1: sender and receiver fail"
    );
    assert!(
        sb.is_error() && ra.is_error(),
        "1 -> 0: sender and receiver fail"
    );
    // The dead incarnation's RTRs arrive stale and are never decoded; a
    // rendezvous of the new one completes.
    let s = a
        .send_enq(Bytes::from(vec![3u8; BIG]), 1, 3)
        .expect("fresh RTS");
    let mut r = None;
    drive(&f, &[&a, &b], || {
        r = r.take().or_else(|| b.recv_deq());
        s.is_done() && r.as_ref().is_some_and(|r| r.is_done())
    });
    assert_eq!(r.unwrap().take_data().unwrap(), vec![3u8; BIG]);
    for d in [&a, &b] {
        assert_eq!(d.endpoint().counters().get(Counter::LciMalformedDropped), 0);
        assert!(!d.is_failed());
    }
}

/// Host 1 as a bare endpoint with a session of its own, so the test can seal
/// whatever control packet it likes toward host 0.
struct Bare {
    ep: Endpoint,
    rel: ReliableSession,
}

impl Bare {
    fn new(ep: Endpoint) -> Bare {
        let rel = ReliableSession::new(&ep);
        Bare { ep, rel }
    }

    fn send(&mut self, ty: PacketType, tag: u32, size: usize, body: &[u8]) {
        let header = protocol::pack(ty, tag, size as u64);
        self.rel
            .send(&self.ep, 0, header, body, 0)
            .expect("sealed and sent");
    }

    /// Admit everything delivered so far; the data frames' headers and bodies.
    fn recv(&mut self) -> Vec<(u64, Vec<u8>)> {
        let mut got = Vec::new();
        while let Some(ev) = self.ep.poll() {
            if let Event::Recv { src, header, data } = ev {
                if self.rel.on_recv(&self.ep, src, header, &data) == RelRecv::Data {
                    got.push((header, data[REL_DATA_OFFSET..].to_vec()));
                }
            }
        }
        got
    }
}

#[test]
fn an_rtr_or_fragment_naming_no_parked_request_is_dropped_and_counted() {
    let f = Fabric::new_manual(FabricConfig::deterministic(2, 0x1D6));
    let a = Device::new(f.endpoint(0), LciConfig::for_hosts(2));
    let mut bare = Bare::new(f.endpoint(1));
    let malformed = || a.endpoint().counters().get(Counter::LciMalformedDropped);
    let deliver = || {
        f.drain();
        a.progress();
    };

    // Ids nobody issued.
    bare.send(
        PacketType::Rtr,
        1,
        BIG,
        &protocol::encode_rtr(0xBAD, 1, 0xBAD),
    );
    deliver();
    assert_eq!(malformed(), 1, "an RTR naming no send request");
    let mut frag = protocol::encode_frag_header(0xBAD, 0).to_vec();
    frag.extend_from_slice(&[7; 32]);
    bare.send(PacketType::Frag, 1, 32, &frag);
    deliver();
    assert_eq!(malformed(), 2, "a fragment naming no receive request");

    // A real rendezvous toward host 1, answered twice at once.
    let s = a.send_enq(Bytes::from(vec![5u8; BIG]), 1, 9).expect("RTS");
    f.drain();
    let (header, body) = bare.recv().pop().expect("the RTS arrived");
    assert_eq!(
        protocol::unpack(header),
        Some((PacketType::Rts, 9, BIG as u64))
    );
    let id = protocol::decode_rts(&body).expect("the RTS carries an id");
    let mr = bare.ep.register_mr(BIG);
    let rtr = protocol::encode_rtr(id, mr.key().0, 0x77);
    bare.send(PacketType::Rtr, 9, BIG, &rtr);
    bare.send(PacketType::Rtr, 9, BIG, &rtr);
    deliver();
    assert_eq!(malformed(), 3, "the second answer to one RTS");
    // The first answer's put lands and completes the send, once.
    deliver();
    assert!(s.is_done());
    assert_eq!(mr.to_vec(), vec![5u8; BIG]);
    // Past its put's completion the id names nothing at all.
    bare.send(PacketType::Rtr, 9, BIG, &rtr);
    deliver();
    assert_eq!(malformed(), 4, "an answer after the put completed");

    // The device is healthy and later traffic flows both ways.
    assert!(!a.is_failed());
    bare.send(PacketType::Egr, 3, 5, b"hello");
    deliver();
    assert_eq!(a.recv_deq().expect("eager").take_data().unwrap(), b"hello");
    a.send_enq(Bytes::from_static(b"world"), 1, 4)
        .expect("eager send");
    f.drain();
    assert_eq!(bare.recv().pop().map(|(_, b)| b), Some(b"world".to_vec()));
    assert_eq!(malformed(), 4);
    assert_eq!(
        a.endpoint()
            .counters()
            .get(Counter::FabricEpochStaleDropped),
        0
    );
}
