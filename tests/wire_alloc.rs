//! Allocation ledger of the eager wire path, and the `SeqGate` model test.
//!
//! A counting `#[global_allocator]` (per-thread tallies, so the suite's
//! tests can run side by side) pins down what DESIGN.md's "eager wire path"
//! ledger claims on the caller-stepped fabric, where everything runs on the
//! calling thread: after warm-up a `ReliableSession::send` of a borrowed
//! slice costs exactly one payload-sized allocation on top of the
//! `Endpoint::try_send` underneath it (the frame the retransmit window keeps;
//! `try_send`'s own copy is the model's NIC DMA read), an eager message
//! through `lci::Device` — whose frames are built and kept in pooled packets,
//! and whose requests are born complete — costs only that NIC copy from
//! `send_enq` to `take_data` (and `recv_deq` + `take_data` nothing at all),
//! a rendezvous `send_enq` allocates the one request it shares with progress,
//! and the receive side, the ack paths and the in-order `SeqGate` allocate
//! nothing of their own.

use bytes::Bytes;
use lci::{Device, LciConfig};
use lci_fabric::frame::SeqGate;
use lci_fabric::{
    Endpoint, Event, Fabric, FabricConfig, HostId, PacketBuf, RelRecv, ReliableSession,
    REL_DATA_OFFSET,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

thread_local! {
    /// (allocations, allocations of at least `PAYLOAD` bytes) by this thread.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

const PAYLOAD: usize = 4096;

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the tally is a
// const-initialised thread-local `Cell` without a destructor, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TALLY.try_with(|t| {
            let (all, big) = t.get();
            t.set((all + 1, big + (layout.size() >= PAYLOAD) as u64));
        });
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// (allocations, payload-sized allocations) this thread makes inside `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (all0, big0) = TALLY.with(Cell::get);
    let r = f();
    let (all1, big1) = TALLY.with(Cell::get);
    (all1 - all0, big1 - big0, r)
}

/// Two hosts on the manual fabric with a session each.
struct Pair {
    fabric: Fabric,
    eps: Vec<Endpoint>,
    rel: Vec<ReliableSession>,
}

impl Pair {
    fn new(seed: u64) -> Self {
        let fabric = Fabric::new_manual(FabricConfig::deterministic(2, seed));
        let eps = fabric.endpoints();
        let rel = eps.iter().map(ReliableSession::new).collect();
        Pair { fabric, eps, rel }
    }

    /// Step the wire dry and hand back what `host` received, unclassified.
    fn deliveries(&self, host: usize) -> Vec<(HostId, u64, PacketBuf)> {
        self.fabric.drain();
        let mut got = Vec::new();
        while let Some(ev) = self.eps[host].poll() {
            if let Event::Recv { src, header, data } = ev {
                got.push((src, header, data));
            }
        }
        got
    }

    /// One data frame each way, classified: grows every queue, window and
    /// event ring the measured calls touch to its steady-state capacity.
    fn warm_up(&self, body: &[u8]) {
        for _ in 0..4 {
            for (from, to) in [(0, 1), (1, 0)] {
                self.rel[from]
                    .send(&self.eps[from], to as HostId, 7, body, 0)
                    .expect("window has room");
                for (src, header, data) in self.deliveries(to) {
                    self.rel[to].on_recv(&self.eps[to], src, header, &data);
                }
                while self.eps[from].poll().is_some() {}
            }
        }
        assert_eq!(self.rel[0].unacked(1), 0, "warm-up traffic fully acked");
    }
}

#[test]
fn reliable_send_costs_one_payload_allocation_beyond_the_nic_copy() {
    let p = Pair::new(1);
    let body = vec![0xA5u8; PAYLOAD];
    p.warm_up(&body);
    let wire_len = vec![0x5Au8; REL_DATA_OFFSET + PAYLOAD];
    let (_, bare, sent) = allocations(|| p.eps[0].try_send(1, 7, &wire_len, 0));
    sent.expect("bare send admitted");
    p.deliveries(1);
    let (_, reliable, sent) = allocations(|| p.rel[0].send(&p.eps[0], 1, 7, &body, 0));
    sent.expect("reliable send admitted");
    assert_eq!(bare, 1, "try_send copies the payload once (the NIC's read)");
    assert_eq!(
        reliable,
        bare + 1,
        "a reliable send builds its frame once, in the buffer the window keeps"
    );
}

/// Two `lci::Device`s on the manual fabric, host 0 sending to host 1.
struct Devices {
    fabric: Fabric,
    a: Device,
    b: Device,
}

/// What one eager message costs, in allocations of the calling thread.
struct Trip {
    /// `send_enq` alone: all, and payload-sized.
    sent_all: u64,
    sent_big: u64,
    /// `recv_deq` and `take_data` together, of any size.
    received_all: u64,
    /// Payload-sized, from `send_enq` to the ack.
    trip_big: u64,
}

impl Devices {
    fn new(seed: u64, cfg: LciConfig) -> Self {
        let fabric = Fabric::new_manual(FabricConfig::deterministic(2, seed));
        let a = Device::new(fabric.endpoint(0), cfg.clone());
        let b = Device::new(fabric.endpoint(1), cfg);
        Devices { fabric, a, b }
    }

    /// Deliver what is on the wire and let both devices progress it.
    fn settle(&self) {
        self.fabric.drain();
        self.a.progress();
        self.b.progress();
    }

    /// Let the receiver's ack out and in, so that every packet host 0 sent
    /// is back in its pool.
    fn ack(&self) {
        self.fabric
            .advance_virtual(self.fabric.config().reliable.ack_delay_ns + 1);
        self.b.progress();
        self.settle();
        assert_eq!(self.a.packets_leased(), 0);
    }

    /// One eager message end to end.
    fn eager(&self, payload: &Bytes, tag: u32) -> Trip {
        let (sent_all, sent_big, req) = allocations(|| self.a.send_enq(payload.clone(), 1, tag));
        assert!(req.expect("window has room").is_done());
        let (_, settle_big, ()) = allocations(|| self.settle());
        let (received_all, received_big, data) = allocations(|| {
            let req = self.b.recv_deq().expect("the message arrived");
            req.take_data().expect("eager receives are complete")
        });
        assert_eq!(data.len(), payload.len());
        drop(data);
        let (_, ack_big, ()) = allocations(|| self.ack());
        Trip {
            sent_all,
            sent_big,
            received_all,
            trip_big: sent_big + settle_big + received_big + ack_big,
        }
    }

    /// One rendezvous message end to end; returns the allocations of its
    /// `send_enq` alone.
    fn rendezvous(&self, payload: &Bytes, tag: u32) -> u64 {
        let (sent_all, _, req) = allocations(|| self.a.send_enq(payload.clone(), 1, tag));
        let req = req.expect("window has room");
        assert!(!req.is_done(), "a rendezvous completes on its put");
        self.settle();
        let got = self.b.recv_deq().expect("the RTS arrived");
        for _ in 0..4 {
            self.settle();
        }
        assert!(req.is_done() && got.is_done());
        let data = got.take_data().expect("the put landed");
        assert_eq!(data.len(), payload.len());
        self.ack();
        sent_all
    }
}

#[test]
fn an_eager_device_message_costs_the_nic_copy_and_no_completion_cookie() {
    let d = Devices::new(3, LciConfig::for_hosts(2));
    let payload = Bytes::from(vec![0xC3u8; PAYLOAD]);
    // Warm-up: queues, windows and event rings reach their steady capacity.
    for tag in 0..8 {
        d.eager(&payload, tag);
    }
    let wire_len = vec![0u8; REL_DATA_OFFSET + PAYLOAD];
    let (bare_all, bare_big, sent) = allocations(|| d.a.endpoint().try_send(1, 7, &wire_len, 0));
    sent.expect("bare send admitted");
    d.settle();
    let trip = d.eager(&payload, 8);
    assert_eq!(
        bare_big, 1,
        "try_send copies the payload once (the NIC's read)"
    );
    assert_eq!(
        trip.sent_big, bare_big,
        "send_enq builds the frame in a pooled packet"
    );
    assert_eq!(
        trip.sent_all, bare_all,
        "beyond the injection, send_enq allocates nothing: its request is born complete"
    );
    assert_eq!(
        trip.trip_big, bare_big,
        "progress, recv_deq and take_data hand on the buffer the fabric delivered"
    );
}

#[test]
fn an_eager_receive_allocates_nothing() {
    let d = Devices::new(4, LciConfig::for_hosts(2));
    let payload = Bytes::from(vec![0x3Cu8; 64]);
    for tag in 0..8 {
        d.eager(&payload, tag);
    }
    let trip = d.eager(&payload, 8);
    assert_eq!(
        trip.received_all, 0,
        "recv_deq and take_data of an eager message"
    );
}

#[test]
fn a_rendezvous_send_still_allocates_its_shared_request() {
    // Above the eager limit: RTS, RTR, put.
    let d = Devices::new(5, LciConfig::for_hosts(2).with_eager_limit(1024));
    let payload = Bytes::from(vec![0x5Au8; PAYLOAD]);
    for tag in 0..8 {
        d.rendezvous(&payload, tag);
    }
    // What injecting the RTS costs by itself: its 8-byte body behind the
    // transport headers.
    let rts_len = [0u8; REL_DATA_OFFSET + 8];
    let (bare_all, _, sent) = allocations(|| d.a.endpoint().try_send(1, 7, &rts_len, 0));
    sent.expect("bare send admitted");
    d.settle();
    let sent_all = d.rendezvous(&payload, 8);
    assert_eq!(
        sent_all,
        bare_all + 1,
        "beyond the RTS, a rendezvous send_enq allocates the request it shares with progress"
    );
}

#[test]
fn receive_and_ack_paths_allocate_nothing_of_their_own() {
    let p = Pair::new(2);
    let body = [0x11u8; 64];
    p.warm_up(&body);

    // An in-order data frame.
    p.rel[0].send(&p.eps[0], 1, 7, &body, 0).expect("admitted");
    let mut got = p.deliveries(1);
    let (src, header, data) = got.pop().expect("one frame delivered");
    let (n, _, verdict) = allocations(|| p.rel[1].on_recv(&p.eps[1], src, header, &data));
    assert_eq!(verdict, RelRecv::Data);
    assert_eq!(n, 0, "on_recv of an in-order data frame");

    // A frame whose piggybacked ack empties the sender's window.
    p.rel[1].send(&p.eps[1], 0, 7, &body, 0).expect("admitted");
    let (src, header, data) = p.deliveries(0).pop().expect("one frame delivered");
    assert_eq!(p.rel[0].unacked(1), 1);
    let (n, _, verdict) = allocations(|| p.rel[0].on_recv(&p.eps[0], src, header, &data));
    assert_eq!(verdict, RelRecv::Data);
    assert_eq!(p.rel[0].unacked(1), 0, "the frame carried the ack");
    assert_eq!(n, 0, "on_recv of an ack-bearing frame");

    // A standalone ack: the frame is stamped on the stack, so pump costs
    // what the bare try_send of those 33 bytes costs.
    while p.eps[0].poll().is_some() {}
    let (bare, _, sent) = allocations(|| p.eps[0].try_send(1, 7, &[0u8; REL_DATA_OFFSET], 0));
    sent.expect("bare send admitted");
    p.deliveries(1);
    assert!(p.rel[0].acks_owed());
    p.fabric
        .advance_virtual(p.fabric.config().reliable.ack_delay_ns + 1);
    let (n, _, injected) = allocations(|| p.rel[0].pump(&p.eps[0]));
    assert_eq!(injected, 1, "exactly the standalone ack");
    assert_eq!(n, bare, "pump's standalone ack");
}

#[test]
fn in_order_gate_admissions_allocate_nothing() {
    let mut gate = SeqGate::new();
    let (n, _, ()) = allocations(|| {
        for seq in 0..10_000u64 {
            assert!(gate.admit(seq));
        }
    });
    assert_eq!(gate.watermark(), 10_000);
    assert_eq!(n, 0, "an in-order run never touches the pending set");
}

/// What `SeqGate` must do, stated over the plain set of everything admitted.
struct GateModel {
    admitted: BTreeSet<u64>,
    window: u64,
    /// Cache for `watermark`: every number below it is in `admitted`.
    low: u64,
}

impl GateModel {
    /// The smallest number never admitted.
    fn watermark(&mut self) -> u64 {
        while self.admitted.contains(&self.low) {
            self.low += 1;
        }
        self.low
    }
    fn admit(&mut self, seq: u64) -> bool {
        let w = self.watermark();
        (seq < w || seq - w < self.window) && self.admitted.insert(seq)
    }
    fn pending(&mut self) -> usize {
        let w = self.watermark();
        self.admitted.range(w..).count()
    }
    fn mask_above(&mut self) -> u32 {
        let w = self.watermark();
        (0..32).fold(0, |m, i| {
            m | (self.admitted.contains(&(w + 1 + i)) as u32) << i
        })
    }
}

#[test]
fn seq_gate_equals_the_admitted_set_model_step_by_step() {
    const WINDOW: u64 = 48;
    let mut rng = 0x5EED_0014u64;
    let mut draw = move |n: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % n
    };
    let mut gate = SeqGate::new().with_window(WINDOW);
    let mut model = GateModel {
        admitted: BTreeSet::new(),
        window: WINDOW,
        low: 0,
    };
    let mut next = 0u64; // the sender's next fresh sequence number
    let mut offered = Vec::new();
    for _ in 0..4_000 {
        offered.clear();
        match draw(10) {
            // In-order run (the fast path, entered and left repeatedly).
            0..=3 => {
                let run = 1 + draw(40);
                offered.extend(next..next + run);
                next += run;
            }
            // Adjacent swap.
            4 | 5 => {
                offered.extend([next + 1, next]);
                next += 2;
            }
            // A hole left open for a while: skip ahead, fill it later.
            6 => {
                let skip = 1 + draw(WINDOW / 2);
                offered.push(next + skip);
                offered.extend(next..next + skip);
                next += skip + 1;
            }
            // Duplicates, old and recent.
            7 | 8 => offered.push(draw(next.max(1))),
            // Beyond (or just at) the window, and far-future forgeries.
            _ => offered.extend([model.watermark() + WINDOW + draw(3), u64::MAX - draw(9)]),
        }
        for &seq in &offered {
            assert_eq!(gate.admit(seq), model.admit(seq), "verdict on {seq}");
            assert_eq!(gate.watermark(), model.watermark(), "after {seq}");
            assert_eq!(gate.mask_above(), model.mask_above(), "after {seq}");
            assert_eq!(gate.pending(), model.pending(), "after {seq}");
        }
    }
    assert!(model.watermark() > 10_000, "the run made progress");
}
