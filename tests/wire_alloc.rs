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
//! and the receive side, the ack paths and the `SeqGate` allocate nothing of
//! their own (the gate builds its ring once, at its first out-of-order
//! admission). The device's first-packet queue grows to the most
//! it has held and allocates nothing after that, and a pop never allocates.
//! Its packet pool builds nothing with the device: each of the first
//! `packet_count` leases builds one packet, and no later lease builds any.
//! Above the wire, an MPI-RMA round's receive side reads each landed slot out
//! of its window once and hands the sub-frames on from that copy: one
//! payload-sized allocation a slot, however many sub-frames it carries.

use bytes::Bytes;
use lci::{Device, LciConfig, MpmcQueue, PacketPool};
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
    fn warm_up(&mut self, body: &[u8]) {
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
    let mut p = Pair::new(1);
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
        Self::on(FabricConfig::deterministic(2, seed), cfg)
    }

    fn on(fabric: FabricConfig, cfg: LciConfig) -> Self {
        let fabric = Fabric::new_manual(fabric);
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
fn the_first_packet_queue_allocates_nothing_once_it_has_held_its_peak() {
    const PEAK: usize = 1000;
    let q = MpmcQueue::new(4096);
    let (popped, _, got) = allocations(|| q.try_pop());
    assert_eq!((got, popped), (None, 0), "a pop of an empty queue");
    for i in 0..PEAK {
        q.push(i);
    }
    for i in 0..PEAK {
        let (popped, _, got) = allocations(|| q.try_pop());
        assert_eq!((got, popped), (Some(i), 0), "a pop allocates nothing");
    }
    for n in [1, PEAK / 3, PEAK, 7, PEAK] {
        let (pushed, _, ()) = allocations(|| (0..n).for_each(|i| q.push(i)));
        assert_eq!(pushed, 0, "{n} pushes after a peak of {PEAK}");
        for i in 0..n {
            let (popped, _, got) = allocations(|| q.try_pop());
            assert_eq!((got, popped), (Some(i), 0), "a pop allocates nothing");
        }
    }
}

#[test]
fn building_a_device_builds_no_packet() {
    let fabric = Fabric::new_manual(FabricConfig::deterministic(2, 7));
    let cfg = LciConfig::for_hosts(2);
    assert!(cfg.packet_payload >= PAYLOAD, "a packet is payload-sized");
    let (_, big, device) = allocations(|| Device::new(fabric.endpoint(0), cfg));
    assert_eq!(device.packets_leased(), 0);
    assert_eq!(
        big, 0,
        "a packet is built by its first lease, not by the device"
    );
}

#[test]
fn the_first_packet_count_leases_build_one_packet_each_and_later_leases_none() {
    let cfg = LciConfig::for_hosts(2);
    let pool = PacketPool::new(cfg.packet_count, cfg.packet_payload, cfg.pool_shards);
    let mut held = Vec::with_capacity(pool.capacity());
    for i in 0..pool.capacity() {
        let (all, big, packet) = allocations(|| pool.alloc());
        held.push(packet.expect("under capacity"));
        assert_eq!((all, big), (1, 1), "lease {i} builds its packet");
    }
    let (all, _, packet) = allocations(|| pool.alloc());
    assert!(packet.is_none(), "exhausted at capacity");
    assert_eq!(all, 0, "an exhausted lease builds nothing");
    for round in 0..3 {
        for packet in held.drain(..) {
            pool.free(packet);
        }
        for i in 0..pool.capacity() {
            let (_, big, packet) = allocations(|| pool.alloc());
            held.push(packet.expect("a freed packet"));
            assert_eq!(big, 0, "round {round}, lease {i} reuses a packet");
        }
    }
}

#[test]
fn a_stream_of_eager_messages_allocates_nothing_payload_sized_after_the_first() {
    // 1024 receive credits, so the device's first-packet queue may hold
    // 1024 items. A 64-byte message makes no payload-sized allocation of its
    // own: the first trip builds the one packet the stream leases (and grows
    // the session's buffers), and every later trip reuses what it built.
    let fabric = FabricConfig::deterministic(2, 6).with_rx_buffers(1024);
    let d = Devices::on(fabric, LciConfig::for_hosts(2));
    let payload = Bytes::from(vec![0x96u8; 64]);
    let built: Vec<u64> = (0..2048)
        .map(|i| d.eager(&payload, i as u32).trip_big)
        .collect();
    assert!(built[0] >= 1, "the first message builds its packet");
    assert_eq!(
        built[1..].iter().sum::<u64>(),
        0,
        "later messages build nothing"
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
    let mut p = Pair::new(2);
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

#[test]
fn out_of_order_gate_admissions_allocate_nothing_after_the_first() {
    // Arrival order of a jittered wire: each block of 16 numbers arrives
    // shuffled, so most admissions land above the watermark and wait there.
    let mut rng = 0x0DD5_EED5u64;
    let mut order: Vec<u64> = (2..10_002u64).collect();
    for block in order.chunks_mut(16) {
        for i in (1..block.len()).rev() {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            block.swap(i, (rng >> 33) as usize % (i + 1));
        }
    }
    let mut gate = SeqGate::new();
    assert!(gate.admit(1), "the first out-of-order admission");
    assert!(gate.admit(0));
    let (n, _, ()) = allocations(|| {
        for &seq in &order {
            assert!(gate.admit(seq), "seq {seq}");
        }
    });
    assert_eq!(gate.watermark(), 10_002);
    assert_eq!(gate.pending(), 0);
    assert_eq!(n, 0, "jittered admissions after the first out-of-order one");
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
        self.admitted
            .range(w + 1..w + 33)
            .fold(0, |m, &s| m | 1 << (s - w - 1))
    }
}

/// The gate against [`GateModel`] at the windows its ring rounds: 1 (the
/// smallest), 48 (not a power of two), 64 and the default 4096.
#[test]
fn seq_gate_equals_the_admitted_set_model_step_by_step() {
    for window in [1, 48, 64, 4096] {
        gate_equals_model_at(window);
    }
}

fn gate_equals_model_at(window: u64) {
    let mut rng = 0x5EED_0014u64;
    let mut draw = move |n: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % n
    };
    let mut gate = SeqGate::new().with_window(window);
    let mut model = GateModel {
        admitted: BTreeSet::new(),
        window,
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
                let skip = 1 + draw((window / 2).max(1));
                offered.push(next + skip);
                offered.extend(next..next + skip);
                next += skip + 1;
            }
            // Duplicates, old and recent.
            7 | 8 => offered.push(draw(next.max(1))),
            // Beyond (or just at) the window, and far-future forgeries.
            _ => offered.extend([model.watermark() + window + draw(3), u64::MAX - draw(9)]),
        }
        // Now and then the sender goes back to its oldest unacknowledged
        // number and resends everything from there, as a retransmission
        // timeout does: on a narrow window that is how a rejected number
        // gets in at all.
        if draw(4) == 0 {
            offered.extend(model.watermark()..next);
        }
        for &seq in &offered {
            assert_eq!(gate.admit(seq), model.admit(seq), "window {window}: verdict on {seq}");
            assert_eq!(gate.watermark(), model.watermark(), "window {window}: after {seq}");
            assert_eq!(gate.mask_above(), model.mask_above(), "window {window}: after {seq}");
            assert_eq!(gate.pending(), model.pending(), "window {window}: after {seq}");
        }
    }
    assert!(model.watermark() > 10_000, "window {window}: the run made progress");
}

/// Two hosts run MPI-RMA rounds of three `PAYLOAD`-byte messages each way.
/// After warm-up, a round's receive side (`recv_round`, its drains and the
/// progress they drive) makes one payload-sized allocation, the slot blob it
/// reads out of the window; a copy per sub-frame would make it four.
#[test]
fn an_rma_round_receive_allocates_the_slot_blob_and_nothing_per_subframe() {
    use abelian::comm::{recv_round, ChannelSpec, CommLayer};
    let cfg = mini_mpi::MpiConfig::default().with_personality(mini_mpi::Personality::zero());
    let world = mini_mpi::MpiWorld::new(FabricConfig::test(2), cfg);
    let layers = [0, 1].map(|h| abelian::layers::MpiRmaLayer::new(world.comm(h)));
    let body = vec![0x5Au8; PAYLOAD];
    let big = std::thread::scope(|s| {
        let hosts: Vec<_> = layers
            .iter()
            .map(|l| {
                let body = &body;
                s.spawn(move || {
                    let spec = ChannelSpec::uniform(2, l.rank(), 4 * (4 + PAYLOAD));
                    l.register_channel(0, spec);
                    let mut big = 0;
                    for _ in 0..4 {
                        l.begin(0);
                        for _ in 0..3 {
                            l.send(0, 1 - l.rank(), body.clone());
                        }
                        l.finish_sends(0);
                        let mut n = 0;
                        let (_, b, r) = allocations(|| {
                            recv_round(l, 0, |_, data| {
                                assert!(data == &body[..], "a {} B message", data.len());
                                n += 1;
                                n == 3
                            })
                        });
                        r.expect("the round completes");
                        big = b;
                    }
                    l.quiesce();
                    big
                })
            })
            .collect();
        hosts.into_iter().map(|h| h.join().expect("host")).collect::<Vec<_>>()
    });
    assert_eq!(big, [1, 1], "payload-sized allocations of a round's receive side, per host");
}
