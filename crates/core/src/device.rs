//! The LCI device: the `Queue` interface of the paper.
//!
//! A [`Device`] wraps one host's fabric endpoint and implements the paper's
//! three algorithms:
//!
//! * **`SEND-ENQ`** (Algorithm 1) — [`Device::send_enq`]: allocate a packet
//!   from the pool (fail retryably if exhausted), then either send eagerly
//!   (small messages — the request is done immediately) or open a rendezvous
//!   with an `RTS` control packet (the request completes when the RDMA put
//!   finishes).
//! * **`RECV-DEQ`** (Algorithm 2) — [`Device::recv_deq`]: pop the concurrent
//!   queue of arrived first-packets. An `EGR` yields a completed request
//!   with the data; an `RTS` allocates a landing buffer, registers it, and
//!   answers with `RTR`.
//! * **`NETWORK-PROGRESS`** (Algorithm 3) — [`Device::progress`]: drain the
//!   completion queue; enqueue `EGR`/`RTS` first-packets, turn `RTR`s into
//!   RDMA puts, and flip request status flags on completions.
//!
//! There is no tag matching and no ordering: completion follows the
//! *first-packet policy* — requests surface in the order their first packet
//! arrived, whatever the source. Upper layers that need ordering impose it
//! themselves (Section III-D of the paper).
//!
//! # One buffer per message
//!
//! An eager or control message has one sender-side home: the pooled packet
//! `SEND-ENQ` copied it into. The packet carries [`REL_DATA_OFFSET`] bytes
//! of headroom, the reliable session stamps its headers there, the NIC
//! reads the packet, and the session's retransmit window keeps *that
//! packet* — the pool is the session's buffer source — until the frame is
//! acknowledged, its destination is declared dead, or the device
//! [`rejoin`](Device::rejoin)s. A lease therefore lasts from `send_enq` to
//! the ack, retransmit memory is pool memory and bounded by it, and an
//! eager send needs no completion of its own: it goes out unsignaled
//! (context 0), so the fabric posts none. On the receive side an eager message is handed out in the
//! buffer the fabric delivered it in ([`crate::RecvData`]). Both eager requests are born complete
//! and own their state; only a rendezvous request is shared with progress.
//!
//! # Rendezvous ids
//!
//! A rendezvous names its requests by 64-bit ids — in the `RTS`/`RTR`
//! control packets, in a fragment's prefix, as the put's context and
//! immediate value — the way RDMA software passes work-request ids to the
//! NIC. The mechanism is the fabric's rendezvous core, which mini-mpi uses
//! too ([`Rendezvous`]: the shared request, the id table and its claim rule,
//! the RTR, the deferred puts and the put completions). Each request is
//! parked from the packet that first carries its id to its last completion:
//! the sender's from `RTS` to `PutDone` (or its last fragment), the
//! receiver's from `RTR` to `PutArrived` (or its last fragment). An id that
//! names nothing is dropped and counted, in `fabric.epoch.stale_dropped`
//! when its epoch is not current and in `lci.malformed_dropped` otherwise.
//! What is LCI's own is around it: the first-packet queue, the deferred
//! `RTS`, the 8-byte `RTS` and the emulated (psm2-style) put.
//!
//! # Wire hardening and reliable delivery
//!
//! Every packet the device sends goes through an
//! [`lci_fabric::reliable::ReliableSession`]: a transport frame
//! (per-destination sequence number + CRC over header, sequence, and body)
//! plus an ack/retransmit header. On receive, [`Device::progress`] runs the
//! session's verification **before** any protocol decoding, so the fabric's
//! corrupt/duplicate/truncate ghosts are dropped (and counted in
//! `lci.malformed_dropped` / `lci.duplicate_dropped`) before any id in them
//! is looked up, and genuinely lost packets ([`lci_fabric::Fault::Drop`],
//! [`lci_fabric::Fault::Blackhole`]) are retransmitted until delivered or
//! until the destination's retry budget declares it dead, which fails the
//! device ([`EnqError::PeerDead`]) instead of wedging its callers.
//!
//! A host is one thread, so what the protocol moves — the reliable session,
//! the rendezvous table, pending puts and fragment streams — is one plain
//! struct behind one lock, which a send takes once: a rendezvous `SEND-ENQ`
//! parks its id, sends the `RTS` and unparks the id on refusal in one hold.

use crate::config::{LciConfig, PutMode};
use crate::pool::{Packet, PacketPool};
use crate::protocol::{self, PacketType};
use crate::queue::MpmcQueue;
use crate::request::{FilledRanges, RdvReq, RecvData, RecvRequest, SendRequest};
use bytes::Bytes;
use lci_fabric::reliable::{RelRecv, ReliableSession, REL_DATA_OFFSET};
use lci_fabric::{Endpoint, Event, Held, PacketBuf, PendingPuts, Put, Rendezvous, SendError};
use lci_trace::{Counter, EventKind, Registry};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why an operation could not be *initiated*. `NoPacket` and `Backpressure`
/// are retryable — no resources were consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqError {
    /// The packet pool is exhausted; retry after progress frees packets.
    NoPacket,
    /// The NIC injection queue is full; retry later.
    Backpressure,
    /// Tag or size exceeds protocol field widths.
    TooLarge,
    /// The device has failed fatally.
    Closed,
    /// The reliable sublayer declared the destination dead (retransmission
    /// budget exhausted — the peer crashed or is partitioned). The device is
    /// failed as a whole: a collective runtime cannot complete a round with
    /// a missing participant.
    PeerDead,
}

impl EnqError {
    /// Is this a transient condition worth retrying?
    pub fn is_retryable(&self) -> bool {
        matches!(self, EnqError::NoPacket | EnqError::Backpressure)
    }
}

impl std::fmt::Display for EnqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnqError::NoPacket => write!(f, "packet pool exhausted (retry)"),
            EnqError::Backpressure => write!(f, "injection backpressure (retry)"),
            EnqError::TooLarge => write!(f, "tag or size exceeds protocol limits"),
            EnqError::Closed => write!(f, "device failed"),
            EnqError::PeerDead => write!(f, "peer unreachable (retransmission budget exhausted)"),
        }
    }
}

impl std::error::Error for EnqError {}

/// A first-packet waiting in the receive queue.
struct RxItem {
    src: u16,
    tag: u32,
    size: u64,
    ty: PacketType,
    data: PacketBuf,
}

/// Where a protocol body starts, in a pooled packet and in a delivered
/// payload alike: behind the transport-frame and reliable-layer headers.
const BODY: usize = REL_DATA_OFFSET;

/// An in-progress emulated-put fragment stream (psm2-style rendezvous):
/// the put an RTR asked for, sent as fragments from `next_offset` on.
struct PendingFrags {
    put: Put<Bytes>,
    tag: u32,
    next_offset: usize,
}

/// Counters describing a device's activity (diagnostics and benches): a
/// named-field view of the `lci.*` rows of the host's counter table.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeviceStats {
    /// Eager messages sent.
    pub egr_sent: u64,
    /// Rendezvous opened (RTS sent).
    pub rdv_opened: u64,
    /// Messages surfaced by `recv_deq`.
    pub received: u64,
    /// `send_enq` attempts rejected for lack of resources.
    pub enq_rejected: u64,
}

impl From<&Registry> for DeviceStats {
    fn from(r: &Registry) -> Self {
        DeviceStats {
            egr_sent: r.get(Counter::LciEgrSent),
            rdv_opened: r.get(Counter::LciRdvOpened),
            received: r.get(Counter::LciReceived),
            enq_rejected: r.get(Counter::LciEnqRejected),
        }
    }
}

/// The device's protocol state, behind its one lock: what a send, a receive
/// and a progress call move.
struct State {
    /// The reliable sublayer: framing, sequencing, dedup, ack/retransmit,
    /// and peer-failure detection, shared by every send and receive path.
    rel: ReliableSession,
    /// Every request a rendezvous id names.
    parked: Rendezvous<Bytes>,
    /// The puts RTRs asked for, until the injection queue takes them.
    pending_puts: PendingPuts<Bytes>,
    pending_frags: VecDeque<PendingFrags>,
    /// What each emulated-put receive has assembled so far, by its id.
    filled: HashMap<u64, FilledRanges>,
    /// The endpoint's completions, taken a batch at a time
    /// ([`Endpoint::drain_into`]); kept so its capacity is reused.
    events: VecDeque<Event>,
}

/// A device's shared half: its protocol [`State`] behind one lock, which
/// `progress` only tries. The pool and the first-packet queue keep locks of
/// their own, taken inside it and never around it — the lock order is
/// state → pool and state → rxq — and neither calls back into the device.
/// On a caller-stepped fabric an injection under `state` also takes the
/// wire's core (state → core), which calls nothing of the device either.
struct DeviceInner {
    ep: Endpoint,
    /// Shared with `state.rel`, which builds and keeps its frames in these
    /// packets.
    pool: Arc<PacketPool>,
    /// First-packets in arrival order. An `RTS` whose `RTR` answer is
    /// deferred for lack of resources goes back at the head, so it still
    /// surfaces before anything that arrived after it.
    rxq: MpmcQueue<RxItem>,
    state: Mutex<State>,
    failed: AtomicBool,
    cfg: LciConfig,
}

/// One host's LCI runtime instance. Cheap to clone; all clones share state.
///
/// Any thread may call [`send_enq`](Device::send_enq) and
/// [`recv_deq`](Device::recv_deq); nothing arrives or completes unless
/// some thread calls [`progress`](Device::progress), which the host's own
/// thread does whenever it waits.
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// Build a device over a fabric endpoint.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or a framed packet
    /// (`packet_payload` plus the transport-frame and reliable-layer
    /// prefixes) exceeds the fabric's maximum payload.
    pub fn new(ep: Endpoint, cfg: LciConfig) -> Device {
        cfg.validate().expect("invalid LciConfig");
        assert!(
            cfg.packet_payload + REL_DATA_OFFSET <= ep.config().max_payload,
            "packet_payload + frame/reliable overhead exceeds fabric max_payload"
        );
        let rx_capacity = ep.config().rx_buffers.max(cfg.packet_count);
        let pool = Arc::new(PacketPool::new(
            cfg.packet_count,
            cfg.packet_payload,
            cfg.pool_shards,
        ));
        Device {
            inner: Arc::new(DeviceInner {
                rxq: MpmcQueue::new(rx_capacity),
                state: Mutex::new(State {
                    rel: ReliableSession::with_bufs(&ep, Arc::clone(&pool) as _),
                    parked: Rendezvous::new(&ep, Counter::LciMalformedDropped),
                    pending_puts: PendingPuts::default(),
                    pending_frags: VecDeque::new(),
                    filled: HashMap::new(),
                    events: VecDeque::new(),
                }),
                pool,
                failed: AtomicBool::new(false),
                cfg,
                ep,
            }),
        }
    }

    /// This device's rank.
    pub fn rank(&self) -> u16 {
        self.inner.ep.host()
    }

    /// Number of hosts in the fabric.
    pub fn num_hosts(&self) -> usize {
        self.inner.ep.num_hosts()
    }

    /// Has this device failed fatally?
    pub fn is_failed(&self) -> bool {
        self.inner.failed.load(Ordering::Acquire)
    }

    /// True when no rendezvous put waits for the injection queue, no
    /// emulated-put stream is unfinished, and the reliable layer holds no
    /// unacknowledged frame and owes no ack ([`PendingPuts::settled`]) — the
    /// condition a host must reach before it may stop driving
    /// [`Device::progress`].
    pub fn quiescent(&self) -> bool {
        let st = self.inner.state.lock();
        st.pending_frags.is_empty() && st.pending_puts.settled(&st.rel)
    }

    /// Packets currently out of the pool (diagnostics): being filled, or
    /// windowed as unacknowledged frames. Zero once the device is
    /// [`quiescent`](Device::quiescent).
    pub fn packets_leased(&self) -> usize {
        self.inner.pool.outstanding()
    }

    /// The configuration in use.
    pub fn config(&self) -> &LciConfig {
        &self.inner.cfg
    }

    /// Activity counters.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats::from(self.counters())
    }

    /// The host's counter table, where every `lci.*` event is counted.
    fn counters(&self) -> &Registry {
        self.inner.ep.counters()
    }

    /// The underlying fabric endpoint (diagnostics).
    pub fn endpoint(&self) -> &Endpoint {
        &self.inner.ep
    }

    /// Seal one empty reliable frame to every peer under the *current*
    /// fabric epoch ([`ReliableSession::probe_epoch`]), just before a
    /// respawn bumps it.
    pub fn flush_epoch_probe(&self) {
        self.inner.state.lock().rel.probe_epoch(&self.inner.ep);
    }

    /// Ask `peer` to acknowledge ([`ReliableSession::ping`]), for a caller
    /// that waits on a peer it owes nothing: a peer that has crashed or left
    /// never answers, the retry budget declares it unreachable, and the
    /// next [`Device::progress`] fails this device. A ping the window
    /// cannot take is skipped, since the frames filling it do the same.
    pub fn ping(&self, peer: u16) {
        let _ = self.inner.state.lock().rel.ping(&self.inner.ep, peer);
    }

    /// Reset this device for a new fabric incarnation, after the fabric's
    /// [`respawn`](lci_fabric::Fabric::respawn) of a crashed host (every
    /// host rejoins, survivors included — the reliable layer's sequence
    /// spaces restart fabric-wide).
    ///
    /// The completion queue is drained once, and queued `Recv` payloads
    /// are dropped (their buffers return the fabric rx credits on drop).
    /// All queued protocol state of the dead incarnation — first-packets,
    /// deferred RTS, pending puts and fragment streams — is discarded: the
    /// engine re-executes every round past its last checkpoint, regenerating
    /// the traffic. Every parked request is unparked and marked an error, so
    /// a rendezvous open in either direction fails instead of waiting on a
    /// peer that has forgotten it, and an id of the dead incarnation that
    /// comes back later names nothing. The reliable session's reset ends
    /// every lease at once — the packets of unacknowledged frames go back to
    /// the pool, so nothing is leased when this returns.
    ///
    /// The failed flag is cleared last: a device that observed `PeerDead`
    /// or its own endpoint failure becomes usable again.
    pub fn rejoin(&self) {
        let inner = &self.inner;
        let mut st = inner.state.lock();
        let st = &mut *st;
        while inner.ep.drain_into(&mut st.events) > 0 {
            for ev in st.events.drain(..) {
                // A put's completions name parked requests, failed below.
                if let Event::Recv { src, header, data } = ev {
                    // Classify stragglers instead of silently dropping them:
                    // the fabric epoch was already bumped, so frames of the
                    // dead incarnation count under fabric.epoch.stale_dropped
                    // here exactly as they would in the progress loop. Any
                    // session state a (theoretical) fresh-epoch frame leaves
                    // behind is wiped by the rel.rejoin() below.
                    let _ = st.rel.on_recv(&inner.ep, src, header, &data);
                }
            }
        }
        while inner.rxq.try_pop().is_some() {}
        st.pending_puts.clear();
        st.pending_frags.clear();
        st.filled.clear();
        st.parked.fail_all();
        st.rel.rejoin();
        inner.failed.store(false, Ordering::Release);
    }

    /// Send the protocol body the caller wrote to `packet[BODY..BODY + len]`.
    ///
    /// The packet is the reliable session's from here on: it is sealed in
    /// place, transmitted, kept in the window as the retransmit copy, and
    /// given back to the pool by the session — when the frame is acked, when
    /// `dst` is declared dead, at [`Device::rejoin`], or at once if the send
    /// is refused. Nothing completes toward the device: an eager or control
    /// packet goes out unsignaled (context 0) and posts no `SendDone`.
    fn send_packet(
        &self,
        rel: &mut ReliableSession,
        dst: u16,
        header: u64,
        packet: Packet,
        len: usize,
    ) -> Result<(), EnqError> {
        let inner = &self.inner;
        if dst as usize >= inner.ep.num_hosts() {
            inner.pool.free(packet);
            return Err(EnqError::Closed);
        }
        rel.send_frame(&inner.ep, dst, header, packet, BODY + len, 0)
            .map_err(|e| match e {
                SendError::Backpressure => EnqError::Backpressure,
                SendError::TooLarge => EnqError::TooLarge,
                SendError::PeerDead(_) => {
                    inner.failed.store(true, Ordering::Release);
                    EnqError::PeerDead
                }
                _ => EnqError::Closed,
            })
    }

    /// **`SEND-ENQ`** — initiate a send of `data` to `dst` with `tag`.
    ///
    /// Non-blocking and retryable: on [`EnqError::NoPacket`] or
    /// [`EnqError::Backpressure`] no resources were consumed and the caller
    /// should retry after the communication server has made progress — this
    /// is LCI's answer to the resource-exhaustion crashes the paper observed
    /// with MPI's eager protocol.
    ///
    /// Messages at or below the eager limit are copied — once — into a pooled
    /// packet and the returned request is already complete; the packet stays
    /// out of the pool until the peer has acknowledged it. Larger messages
    /// keep `data` alive inside the request until the rendezvous put
    /// finishes.
    pub fn send_enq(&self, data: Bytes, dst: u16, tag: u32) -> Result<SendRequest, EnqError> {
        if self.is_failed() {
            return Err(EnqError::Closed);
        }
        if tag > protocol::MAX_TAG || data.len() as u64 > protocol::MAX_SIZE {
            return Err(EnqError::TooLarge);
        }
        let inner = &self.inner;
        let Some(mut packet) = inner.pool.alloc() else {
            self.counters().incr(Counter::LciEnqRejected);
            self.counters().incr(Counter::LciPoolExhausted);
            inner.ep.record(EventKind::PoolExhausted, dst as u32, 0);
            return Err(EnqError::NoPacket);
        };

        if data.len() <= inner.cfg.eager_limit {
            let len = data.len();
            packet[BODY..BODY + len].copy_from_slice(&data);
            let header = protocol::pack(PacketType::Egr, tag, len as u64);
            let mut st = inner.state.lock();
            self.send_packet(&mut st.rel, dst, header, packet, len).inspect_err(|e| {
                if e.is_retryable() {
                    self.counters().incr(Counter::LciEnqRejected);
                }
            })?;
            // Eager sends complete at initiation: the data has been copied
            // out of the user's buffer (Algorithm 1, line 10).
            self.counters().incr(Counter::LciEgrSent);
            Ok(SendRequest::eager(dst, tag, len))
        } else {
            let len = data.len();
            let req = RdvReq::new(Held::Payload(data), ());
            let header = protocol::pack(PacketType::Rts, tag, len as u64);
            let mut st = inner.state.lock();
            let id = st.parked.park(&req);
            packet[BODY..BODY + 8].copy_from_slice(&protocol::encode_rts(id));
            self.send_packet(&mut st.rel, dst, header, packet, 8).inspect_err(|e| {
                // The RTS never left: nothing can name the id.
                st.parked.unpark(&inner.ep, id);
                if e.is_retryable() {
                    self.counters().incr(Counter::LciEnqRejected);
                }
            })?;
            self.counters().incr(Counter::LciRdvOpened);
            Ok(SendRequest::rendezvous(dst, tag, len, req))
        }
    }

    /// **`RECV-DEQ`** — dequeue the next arrived message, if any.
    ///
    /// Returns `None` when no first-packet is queued *or* when answering an
    /// `RTS` is temporarily impossible for lack of resources (the packet goes
    /// back at the head of the queue). Eager receives come back complete;
    /// rendezvous receives complete once the peer's put lands.
    pub fn recv_deq(&self) -> Option<RecvRequest> {
        let inner = &self.inner;
        let item = inner.rxq.try_pop()?;
        match item.ty {
            PacketType::Egr => {
                // The frame and reliable prefixes were verified in progress;
                // the request keeps the delivered buffer and skips them. The
                // rx credit goes back here, not when the data is taken.
                let buf = item.data.into_vec();
                let len = buf.len() - BODY;
                if len as u64 != item.size {
                    // A header/payload length disagreement that slipped past
                    // the checksum: drop rather than surface a lying packet.
                    self.counters().incr(Counter::LciMalformedDropped);
                    return None;
                }
                let data = RecvData::new(buf, BODY);
                self.counters().incr(Counter::LciReceived);
                Some(RecvRequest::eager(item.src, item.tag, data))
            }
            PacketType::Rts => {
                let Some(send_id) = protocol::decode_rts(&item.data[BODY..]) else {
                    self.counters().incr(Counter::LciMalformedDropped);
                    return None; // malformed control packet: drop
                };
                let Some(mut packet) = inner.pool.alloc() else {
                    self.defer(item);
                    return None;
                };
                // Landing buffer: a registered region for native RDMA, a
                // plain assembly buffer for the emulated (psm2-style) path.
                let size = item.size as usize;
                let req = RdvReq::new(Held::Empty, ());
                let mut st = inner.state.lock();
                let (recv_id, rtr) = match inner.cfg.put_mode {
                    PutMode::Rdma => st.parked.answer(&inner.ep, &req, send_id, size),
                    PutMode::Emulated => {
                        *req.held() = Held::Landed(vec![0u8; size]);
                        let id = st.parked.park(&req);
                        (id, protocol::encode_rtr(send_id, 0, id))
                    }
                };
                packet[BODY..BODY + 24].copy_from_slice(&rtr);
                let header = protocol::pack(PacketType::Rtr, item.tag, item.size);
                if self.send_packet(&mut st.rel, item.src, header, packet, 24).is_err() {
                    // Unwind: the RTR never left. Unpark the request (its
                    // region deregistered) and defer the RTS.
                    st.parked.unpark(&inner.ep, recv_id);
                    self.defer(item);
                    return None;
                }
                self.counters().incr(Counter::LciReceived);
                Some(RecvRequest::rendezvous(item.src, item.tag, size, req))
            }
            PacketType::Rtr | PacketType::Frag => {
                unreachable!("control/fragment packets are handled by progress")
            }
        }
    }

    /// Put an `RTS` that cannot be answered yet back at the head of the
    /// queue (first-packet policy: it surfaces before anything that arrived
    /// after it).
    fn defer(&self, item: RxItem) {
        self.inner.rxq.push_front(item);
    }

    /// **`NETWORK-PROGRESS`** — drive the protocol: drain completions,
    /// enqueue first-packets, and turn `RTR`s into RDMA puts, injected (with
    /// any deferred by back-pressure) once the completions are drained.
    /// Returns the number of events processed.
    ///
    /// Safe to call from any thread, but it only tries the device's lock: a
    /// call that finds another caller inside the device returns 0 at once
    /// (the paper dedicates a single communication-server thread; the
    /// interaction between server and compute threads is limited to the
    /// request status flags).
    pub fn progress(&self) -> usize {
        let inner = &self.inner;
        let Some(mut st) = inner.state.try_lock() else {
            return 0;
        };
        let st = &mut *st;
        self.counters().incr(Counter::LciProgressPolls);
        let mut handled = 0;

        // Fire reliable-layer timers: retransmissions of unacked frames and
        // standalone acks for owed receive state.
        handled += st.rel.pump(&inner.ep);
        if st.rel.dead_peer().is_some() {
            // A destination exhausted its retransmission budget: the
            // collective cannot complete, so the whole device fails.
            inner.failed.store(true, Ordering::Release);
        }
        if inner.ep.is_failed() {
            // The fabric endpoint itself died (e.g. this host's crash-stop
            // fault fired): surface it so the host's own threads abort
            // promptly instead of spinning against a dead NIC.
            inner.failed.store(true, Ordering::Release);
        }

        // Advance emulated-put fragment streams.
        handled += self.issue_frags(st);

        // Completions come a batch at a time, in queue order; the loop ends
        // when a drain (which drives a wall-clock wire first) finds none.
        loop {
            let Some(ev) = st.events.pop_front() else {
                if inner.ep.drain_into(&mut st.events) == 0 {
                    break;
                }
                continue;
            };
            handled += 1;
            match ev {
                Event::Recv { src, header, data } => self.on_recv(st, src, header, data),
                // Never posted: every packet send — first transmission,
                // retransmission, standalone ack — is unsignaled; its packet
                // is the reliable session's until the ack.
                Event::SendDone { .. } => {}
                Event::PutDone { ctx, epoch } => {
                    st.parked.on_put_done(&inner.ep, ctx, epoch);
                }
                Event::PutArrived { imm, epoch, .. } => {
                    st.parked.on_put_arrived(&inner.ep, imm, epoch);
                }
                Event::Error { ctx, .. } => {
                    inner.failed.store(true, Ordering::Release);
                    // Only a put carries a context: its send request fails.
                    st.parked.on_put_error(ctx);
                }
            }
        }
        // Inject the puts RTRs asked for, and those back-pressure deferred.
        if !st.pending_puts.is_empty() {
            match st.pending_puts.retry(&inner.ep, &mut st.parked) {
                Ok(issued) => handled += issued,
                Err(_) => inner.failed.store(true, Ordering::Release),
            }
        }
        if handled > 0 {
            self.counters()
                .add(Counter::LciProgressEvents, handled as u64);
        }
        handled
    }

    fn on_recv(&self, st: &mut State, src: u16, header: u64, data: PacketBuf) {
        let inner = &self.inner;
        // Run the reliable layer before any protocol decoding: a
        // corrupt/truncated ghost fails the checksum, a duplicate (ghost or
        // retransmission) re-uses an admitted sequence number, and ack
        // frames are pure control traffic — none of them reaches the
        // id-carrying control packets below.
        match st.rel.on_recv(&inner.ep, src, header, &data) {
            RelRecv::Data => {}
            RelRecv::Duplicate => {
                self.counters().incr(Counter::LciDuplicateDropped);
                return;
            }
            RelRecv::Malformed => {
                self.counters().incr(Counter::LciMalformedDropped);
                return;
            }
            RelRecv::Ack => return,
            // A frame sealed under a dead fabric incarnation (already
            // counted by the reliable layer). Its ids, if any, name
            // requests the rejoin failed: never decode them.
            RelRecv::Stale => return,
        }
        let Some((ty, tag, size)) = protocol::unpack(header) else {
            self.counters().incr(Counter::LciMalformedDropped);
            return; // malformed
        };
        match ty {
            PacketType::Egr | PacketType::Rts => {
                inner.rxq.push(RxItem {
                    src,
                    tag,
                    size,
                    ty,
                    data,
                });
            }
            PacketType::Rtr => {
                let Some(put) = st.parked.on_rtr(&inner.ep, src, &data[BODY..]) else {
                    return;
                };
                drop(data); // release the rx credit before the (long) put
                match inner.cfg.put_mode {
                    PutMode::Rdma => st.pending_puts.push(put),
                    PutMode::Emulated => {
                        st.pending_frags.push_back(PendingFrags { put, tag, next_offset: 0 });
                        self.issue_frags(st);
                    }
                }
            }
            PacketType::Frag => {
                let body_full = &data[BODY..];
                let Some((recv_id, offset)) = protocol::decode_frag_header(body_full) else {
                    self.counters().incr(Counter::LciMalformedDropped);
                    return;
                };
                let body = &body_full[16..];
                // The receive request stays parked until its last fragment.
                let Some(req) = st.parked.get(recv_id).cloned() else {
                    self.counters().incr(Counter::LciMalformedDropped);
                    return;
                };
                let mut held = req.held();
                let Held::Landed(buf) = &mut *held else {
                    return;
                };
                let off = offset as usize;
                match off.checked_add(body.len()) {
                    // Copy only after both bounds and overlap checks pass:
                    // an out-of-range fragment is dropped instead of
                    // panicking, and a re-delivered range can no longer
                    // double-count toward completion.
                    Some(end) if end <= buf.len() => {
                        let filled = st.filled.entry(recv_id).or_default();
                        if !filled.insert(off, end) {
                            self.counters().incr(Counter::LciDuplicateDropped);
                            return;
                        }
                        buf[off..end].copy_from_slice(body);
                        if filled.covered() < buf.len() {
                            return;
                        }
                    }
                    _ => {
                        self.counters().incr(Counter::LciMalformedDropped);
                        return;
                    }
                }
                drop(held);
                st.filled.remove(&recv_id);
                st.parked.finish(recv_id, true);
            }
        }
    }

    /// Push fragments of pending emulated-put streams into the NIC until
    /// resources run out. Returns the number of fragments injected.
    fn issue_frags(&self, st: &mut State) -> usize {
        let inner = &self.inner;
        let q = &mut st.pending_frags;
        let chunk = inner.cfg.packet_payload - 16;
        let mut issued = 0;
        while let Some(f) = q.front_mut() {
            let total = f.put.payload.len();
            while f.next_offset < total {
                let Some(mut packet) = inner.pool.alloc() else {
                    return issued;
                };
                let end = (f.next_offset + chunk).min(total);
                let len = end - f.next_offset;
                let body = &mut packet[BODY..BODY + 16 + len];
                body[..16].copy_from_slice(&protocol::encode_frag_header(
                    f.put.imm,
                    f.next_offset as u64,
                ));
                body[16..].copy_from_slice(&f.put.payload[f.next_offset..end]);
                let header = protocol::pack(PacketType::Frag, f.tag, total as u64);
                match self.send_packet(&mut st.rel, f.put.dst, header, packet, 16 + len) {
                    Ok(()) => {
                        f.next_offset = end;
                        issued += 1;
                    }
                    Err(e) if e.is_retryable() => return issued,
                    Err(_) => {
                        st.parked.finish(f.put.id, false);
                        inner.failed.store(true, Ordering::Release);
                        q.pop_front();
                        return issued;
                    }
                }
            }
            // Whole payload copied into the fabric: the send is complete
            // from the user's perspective.
            st.parked.finish(f.put.id, true);
            q.pop_front();
        }
        issued
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("rank", &self.rank())
            .field("failed", &self.is_failed())
            .finish()
    }
}
