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
//! NIC. Each request is parked in the device's table ([`Parked`]) from the
//! packet that first carries its id to its last completion: the sender's
//! from `RTS` to `PutDone` (or its last fragment), the receiver's from `RTR`
//! to `PutArrived` (or its last fragment). Whatever names an id is looked
//! up, never trusted: an id that names nothing — never issued, already
//! answered, or from an incarnation [`rejoin`](Device::rejoin) discarded —
//! is dropped and counted, in `fabric.epoch.stale_dropped` when its epoch is
//! not current and in `lci.malformed_dropped` otherwise.
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

use crate::config::LciConfig;
use crate::faa_queue::MpmcQueue;
use crate::pool::{Packet, PacketPool};
use crate::protocol::{self, PacketType};
use crate::request::{FilledRanges, RecvData, RecvRequest, ReqInner, ReqState, SendRequest};
use bytes::Bytes;
use lci_fabric::reliable::{RelRecv, ReliableSession, REL_DATA_OFFSET};
use lci_fabric::{Endpoint, Event, MrKey, PacketBuf, Parked, SendError};
use lci_trace::{Counter, EventKind, Registry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// [`Device::send_enq_backoff`] spent its whole retry budget without the
    /// transient condition clearing. Not retryable as-is: the caller should
    /// escalate (shed load, widen the budget, or treat the fabric as wedged).
    RetriesExhausted,
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
            EnqError::RetriesExhausted => write!(f, "retry budget exhausted"),
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

/// A rendezvous put: context `id` (its send request, parked until `PutDone`).
struct PendingPut {
    dst: u16,
    key: MrKey,
    payload: Bytes,
    id: u64,
    imm: u64,
}

/// An in-progress emulated-put fragment stream (psm2-style rendezvous).
struct PendingFrags {
    dst: u16,
    tag: u32,
    payload: Bytes,
    next_offset: usize,
    recv_id: u64,
    send_id: u64,
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
    /// Retryable failures absorbed inside [`Device::send_enq_backoff`].
    pub retries: u64,
    /// Times [`Device::send_enq_backoff`] gave up after spending its budget.
    pub retries_exhausted: u64,
}

impl From<&Registry> for DeviceStats {
    fn from(r: &Registry) -> Self {
        DeviceStats {
            egr_sent: r.get(Counter::LciEgrSent),
            rdv_opened: r.get(Counter::LciRdvOpened),
            received: r.get(Counter::LciReceived),
            enq_rejected: r.get(Counter::LciEnqRejected),
            retries: r.get(Counter::LciRetries),
            retries_exhausted: r.get(Counter::LciRetriesExhausted),
        }
    }
}

/// What only the one thread inside [`Device::progress`] touches.
#[derive(Default)]
struct Progress {
    /// Rendezvous puts deferred by back-pressure.
    pending_puts: VecDeque<PendingPut>,
    pending_frags: VecDeque<PendingFrags>,
    /// The endpoint's completions, taken a batch at a time
    /// ([`Endpoint::drain_into`]); kept so its capacity is reused.
    events: VecDeque<Event>,
}

struct DeviceInner {
    ep: Endpoint,
    /// Shared with `rel`, which builds and keeps its frames in these packets.
    pool: Arc<PacketPool>,
    rxq: MpmcQueue<RxItem>,
    /// RTS packets whose RTR answer was deferred for lack of resources.
    /// Drained ahead of `rxq` so the first-packet order is preserved
    /// (requeueing into the MPMC ring would move them behind later arrivals).
    deferred_rts: Mutex<VecDeque<RxItem>>,
    /// Length of `deferred_rts`, so that `recv_deq` takes the lock only
    /// when there is something behind it.
    deferred_len: AtomicUsize,
    /// The reliable sublayer: framing, sequencing, dedup, ack/retransmit,
    /// and peer-failure detection, shared by every send and receive path.
    rel: ReliableSession,
    /// Held by the caller that is making progress.
    progress: Mutex<Progress>,
    /// Every request a rendezvous id names. A lock of its own: `send_enq`
    /// and `recv_deq` park requests outside `progress`.
    parked: Mutex<Parked<Arc<ReqInner>>>,
    failed: AtomicBool,
    cfg: LciConfig,
}

/// One host's LCI runtime instance. Cheap to clone; all clones share state.
///
/// Any thread may call [`send_enq`](Device::send_enq) and
/// [`recv_deq`](Device::recv_deq); [`progress`](Device::progress) is
/// normally driven by a dedicated [`CommServer`](crate::CommServer) thread.
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
                deferred_rts: Mutex::new(VecDeque::new()),
                deferred_len: AtomicUsize::new(0),
                rel: ReliableSession::with_bufs(&ep, Arc::clone(&pool) as _),
                pool,
                progress: Mutex::new(Progress::default()),
                parked: Mutex::new(Parked::new(&ep)),
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

    /// True when the reliable layer holds no unacknowledged frame toward
    /// any peer and owes no ack ([`ReliableSession::quiescent`]) — the
    /// condition a host must reach before it may stop driving
    /// [`Device::progress`].
    pub fn quiescent(&self) -> bool {
        self.inner.rel.quiescent()
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
    /// fabric epoch. The recovery driver calls this on each surviving
    /// device immediately before [`respawn`](lci_fabric::Fabric::respawn)
    /// bumps the epoch: the probes land after the bump, get classified
    /// stale by the receivers' epoch gates, and make the
    /// `fabric.epoch.stale_dropped` evidence of the discarded incarnation
    /// deterministic (a quiesced survivor may otherwise have nothing left
    /// in flight). Errors are ignored — a probe that cannot be sent (dead
    /// peer, full window) proves the same point by its absence.
    pub fn flush_epoch_probe(&self) {
        let inner = &self.inner;
        let me = inner.ep.host();
        for dst in 0..inner.ep.num_hosts() as u16 {
            if dst != me {
                let _ = inner.rel.send(&inner.ep, dst, 0, &[], 0);
            }
        }
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
    /// the pool, which is full again when this returns.
    ///
    /// The failed flag is cleared last: a device that observed `PeerDead`
    /// or its own endpoint failure becomes usable again.
    pub fn rejoin(&self) {
        let inner = &self.inner;
        let mut prog = inner.progress.lock();
        let prog = &mut *prog;
        while inner.ep.drain_into(&mut prog.events) > 0 {
            for ev in prog.events.drain(..) {
                // A put's completions name parked requests, failed below.
                if let Event::Recv { src, header, data } = ev {
                    // Classify stragglers instead of silently dropping them:
                    // the fabric epoch was already bumped, so frames of the
                    // dead incarnation count under fabric.epoch.stale_dropped
                    // here exactly as they would in the progress loop. Any
                    // session state a (theoretical) fresh-epoch frame leaves
                    // behind is wiped by the rel.rejoin() below.
                    let _ = inner.rel.on_recv(&inner.ep, src, header, &data);
                }
            }
        }
        while inner.rxq.try_pop().is_some() {}
        {
            let mut deferred = inner.deferred_rts.lock();
            deferred.clear();
            inner.deferred_len.store(0, Ordering::Release);
        }
        prog.pending_puts.clear();
        prog.pending_frags.clear();
        for req in inner.parked.lock().drain() {
            req.mark_error();
        }
        inner.rel.rejoin();
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
        inner
            .rel
            .send_frame(&inner.ep, dst, header, packet, BODY + len, 0)
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
            self.send_packet(dst, header, packet, len).inspect_err(|e| {
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
            let req = ReqInner::new(ReqState::SendPayload(data));
            let id = inner.parked.lock().park(Arc::clone(&req));
            packet[BODY..BODY + 8].copy_from_slice(&protocol::encode_rts(id));
            let header = protocol::pack(PacketType::Rts, tag, len as u64);
            self.send_packet(dst, header, packet, 8).inspect_err(|e| {
                // The RTS never left: nothing can name the id.
                inner.parked.lock().take(id);
                if e.is_retryable() {
                    self.counters().incr(Counter::LciEnqRejected);
                }
            })?;
            self.counters().incr(Counter::LciRdvOpened);
            Ok(SendRequest::rendezvous(dst, tag, len, req))
        }
    }

    /// [`Device::send_enq`] wrapped in capped exponential backoff with the
    /// configured retry budget ([`LciConfig::retry_budget`],
    /// [`LciConfig::backoff_base_ns`], [`LciConfig::backoff_cap_ns`]).
    ///
    /// Retryable failures (`NoPacket`, `Backpressure`) are absorbed: the
    /// device makes progress itself between attempts (so callers without a
    /// [`CommServer`](crate::CommServer) still drain completions that free
    /// packets and injection slots), waits, and retries. The spin-retry of
    /// the paper's `SEND-ENQ` loop thereby becomes measurable
    /// ([`DeviceStats::retries`]) and bounded: once the budget is spent the
    /// call fails with [`EnqError::RetriesExhausted`] instead of hanging —
    /// the deliberate contrast to mini-mpi, which turns sustained exhaustion
    /// into a fatal error with no retry at all.
    pub fn send_enq_backoff(&self, data: Bytes, dst: u16, tag: u32) -> Result<SendRequest, EnqError> {
        let mut backoff = crate::backoff::Backoff::from_config(&self.inner.cfg);
        loop {
            match self.send_enq(data.clone(), dst, tag) {
                Ok(req) => return Ok(req),
                Err(e) if e.is_retryable() => {
                    self.counters().incr(Counter::LciRetries);
                    let attempt = backoff.attempt() as u64;
                    self.inner.ep.record(EventKind::EnqRetry, dst as u32, attempt);
                    self.progress();
                    if !backoff.snooze_in(self.counters()) {
                        self.counters().incr(Counter::LciRetriesExhausted);
                        return Err(EnqError::RetriesExhausted);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// **`RECV-DEQ`** — dequeue the next arrived message, if any.
    ///
    /// Returns `None` when no first-packet is queued *or* when answering an
    /// `RTS` is temporarily impossible for lack of resources (the packet is
    /// requeued). Eager receives come back complete; rendezvous receives
    /// complete once the peer's put lands.
    pub fn recv_deq(&self) -> Option<RecvRequest> {
        let inner = &self.inner;
        // First-packet policy: an RTS whose RTR was deferred for lack of
        // resources must surface before anything that arrived after it, so
        // the side list drains ahead of the ring.
        let item = match self.pop_deferred() {
            Some(item) => item,
            None => inner.rxq.try_pop()?,
        };
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
                let (state, key) = match inner.cfg.put_mode {
                    crate::config::PutMode::Rdma => {
                        let mr = inner.ep.register_mr(item.size as usize);
                        let key = mr.key();
                        (ReqState::RecvMr(mr), key)
                    }
                    crate::config::PutMode::Emulated => (
                        ReqState::RecvAssembly {
                            buf: vec![0u8; item.size as usize],
                            filled: FilledRanges::new(),
                        },
                        MrKey(0),
                    ),
                };
                let req = ReqInner::new(state);
                let recv_id = inner.parked.lock().park(Arc::clone(&req));
                packet[BODY..BODY + 24]
                    .copy_from_slice(&protocol::encode_rtr(send_id, key.0, recv_id));
                let header = protocol::pack(PacketType::Rtr, item.tag, item.size);
                match self.send_packet(item.src, header, packet, 24) {
                    Ok(()) => {
                        self.counters().incr(Counter::LciReceived);
                        Some(RecvRequest::rendezvous(
                            item.src,
                            item.tag,
                            item.size as usize,
                            req,
                        ))
                    }
                    Err(_) => {
                        // Unwind: the RTR never left. Unpark the request,
                        // drop the MR, defer the RTS.
                        inner.parked.lock().take(recv_id);
                        if key.0 != 0 {
                            inner.ep.deregister_mr(key);
                        }
                        self.defer(item);
                        None
                    }
                }
            }
            PacketType::Rtr | PacketType::Frag => {
                unreachable!("control/fragment packets are handled by progress")
            }
        }
    }

    /// Put an RTS that cannot be answered yet at the head of the side list.
    fn defer(&self, item: RxItem) {
        let inner = &self.inner;
        let mut deferred = inner.deferred_rts.lock();
        deferred.push_front(item);
        inner.deferred_len.store(deferred.len(), Ordering::Release);
    }

    fn pop_deferred(&self) -> Option<RxItem> {
        let inner = &self.inner;
        if inner.deferred_len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut deferred = inner.deferred_rts.lock();
        let item = deferred.pop_front();
        inner.deferred_len.store(deferred.len(), Ordering::Release);
        item
    }

    /// **`NETWORK-PROGRESS`** — drive the protocol: drain completions,
    /// enqueue first-packets, convert `RTR`s into RDMA puts, and retry puts
    /// deferred by back-pressure. Returns the number of events processed.
    ///
    /// Safe to call from any thread, but only one caller makes progress at a
    /// time (the paper dedicates a single communication-server thread; the
    /// interaction between server and compute threads is limited to the
    /// request status flags).
    pub fn progress(&self) -> usize {
        let inner = &self.inner;
        let Some(mut prog) = inner.progress.try_lock() else {
            return 0;
        };
        let prog = &mut *prog;
        self.counters().incr(Counter::LciProgressPolls);
        let mut handled = 0;

        // Fire reliable-layer timers: retransmissions of unacked frames and
        // standalone acks for owed receive state.
        handled += inner.rel.pump(&inner.ep);
        if inner.rel.dead_peer().is_some() {
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

        // Retry puts deferred by back-pressure.
        for _ in 0..prog.pending_puts.len() {
            let p = prog.pending_puts.pop_front().expect("len checked");
            if self.issue_put(&p) {
                handled += 1;
            } else {
                prog.pending_puts.push_back(p);
                break; // still pressured; try again next call
            }
        }

        // Advance emulated-put fragment streams.
        handled += self.issue_frags(prog);

        // Completions come a batch at a time, in queue order; the loop ends
        // when a drain (which drives a wall-clock wire first) finds none.
        loop {
            let Some(ev) = prog.events.pop_front() else {
                if inner.ep.drain_into(&mut prog.events) == 0 {
                    break;
                }
                continue;
            };
            handled += 1;
            match ev {
                Event::Recv { src, header, data } => self.on_recv(prog, src, header, data),
                // Never posted: every packet send — first transmission,
                // retransmission, standalone ack — is unsignaled; its packet
                // is the reliable session's until the ack.
                Event::SendDone { .. } => {}
                Event::PutDone { ctx, epoch } => {
                    if let Some(req) = self.claim(ctx, epoch) {
                        req.mark_done();
                    }
                }
                Event::PutArrived { imm, epoch, .. } => {
                    let Some(req) = self.claim(imm, epoch) else {
                        continue;
                    };
                    if epoch != inner.ep.fabric_epoch() {
                        // Straggler queued before a respawn but consumed
                        // before this device rejoined: the request belongs
                        // to the dead incarnation. Fail it.
                        self.counters().incr(Counter::FabricEpochStaleDropped);
                        req.mark_error();
                        continue;
                    }
                    let mut st = req.state.lock();
                    if let ReqState::RecvMr(mr) = std::mem::replace(&mut *st, ReqState::Empty) {
                        inner.ep.deregister_mr(mr.key());
                        *st = ReqState::RecvReady(RecvData::new(mr.take(), 0));
                    }
                    drop(st);
                    req.mark_done();
                }
                Event::Error { ctx, .. } => {
                    inner.failed.store(true, Ordering::Release);
                    // Only a put carries a context: its send request fails.
                    self.finish(ctx, false);
                }
            }
        }
        if handled > 0 {
            self.counters()
                .add(Counter::LciProgressEvents, handled as u64);
        }
        handled
    }

    /// Unpark the request a completion of `epoch` names. An id that names
    /// nothing is dropped and counted: as stale when `epoch` is not the
    /// fabric's, as malformed otherwise.
    fn claim(&self, id: u64, epoch: u32) -> Option<Arc<ReqInner>> {
        let req = self.inner.parked.lock().take(id);
        if req.is_none() && epoch == self.inner.ep.fabric_epoch() {
            self.counters().incr(Counter::LciMalformedDropped);
        } else if req.is_none() {
            self.counters().incr(Counter::FabricEpochStaleDropped);
        }
        req
    }

    fn on_recv(&self, prog: &mut Progress, src: u16, header: u64, data: PacketBuf) {
        let inner = &self.inner;
        // Run the reliable layer before any protocol decoding: a
        // corrupt/truncated ghost fails the checksum, a duplicate (ghost or
        // retransmission) re-uses an admitted sequence number, and ack
        // frames are pure control traffic — none of them reaches the
        // id-carrying control packets below.
        match inner.rel.on_recv(&inner.ep, src, header, &data) {
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
                let Some((send_id, key, recv_id)) = protocol::decode_rtr(&data[BODY..]) else {
                    self.counters().incr(Counter::LciMalformedDropped);
                    return;
                };
                drop(data); // release the rx credit before the (long) put
                // The send request stays parked until its put completes; an
                // RTR that names nothing, or one already answered, finds no
                // payload to send.
                let req = inner.parked.lock().get(send_id).cloned();
                let payload = req.and_then(|req| {
                    let mut st = req.state.lock();
                    match std::mem::replace(&mut *st, ReqState::Empty) {
                        ReqState::SendPayload(b) => Some(b),
                        other => {
                            *st = other;
                            None
                        }
                    }
                });
                let Some(payload) = payload else {
                    self.counters().incr(Counter::LciMalformedDropped);
                    return;
                };
                match inner.cfg.put_mode {
                    crate::config::PutMode::Rdma => {
                        let p = PendingPut {
                            dst: src,
                            key: MrKey(key),
                            payload,
                            id: send_id,
                            imm: recv_id,
                        };
                        if !self.issue_put(&p) {
                            prog.pending_puts.push_back(p);
                        }
                    }
                    crate::config::PutMode::Emulated => {
                        prog.pending_frags.push_back(PendingFrags {
                            dst: src,
                            tag,
                            payload,
                            next_offset: 0,
                            recv_id,
                            send_id,
                        });
                        self.issue_frags(prog);
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
                let Some(req) = inner.parked.lock().get(recv_id).cloned() else {
                    self.counters().incr(Counter::LciMalformedDropped);
                    return;
                };
                let mut st = req.state.lock();
                let ReqState::RecvAssembly { buf, filled } = &mut *st else {
                    return;
                };
                let off = offset as usize;
                match off.checked_add(body.len()) {
                    // Copy only after both bounds and overlap checks pass:
                    // an out-of-range fragment is dropped instead of
                    // panicking, and a re-delivered range can no longer
                    // double-count toward completion.
                    Some(end) if end <= buf.len() => {
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
                let buf = std::mem::take(buf);
                *st = ReqState::RecvReady(RecvData::new(buf, 0));
                drop(st);
                self.finish(recv_id, true);
            }
        }
    }

    /// Push fragments of pending emulated-put streams into the NIC until
    /// resources run out. Returns the number of fragments injected.
    fn issue_frags(&self, prog: &mut Progress) -> usize {
        let inner = &self.inner;
        let q = &mut prog.pending_frags;
        let chunk = inner.cfg.packet_payload - 16;
        let mut issued = 0;
        while let Some(f) = q.front_mut() {
            let total = f.payload.len();
            while f.next_offset < total {
                let Some(mut packet) = inner.pool.alloc() else {
                    return issued;
                };
                let end = (f.next_offset + chunk).min(total);
                let len = end - f.next_offset;
                let body = &mut packet[BODY..BODY + 16 + len];
                body[..16].copy_from_slice(&protocol::encode_frag_header(
                    f.recv_id,
                    f.next_offset as u64,
                ));
                body[16..].copy_from_slice(&f.payload[f.next_offset..end]);
                let header = protocol::pack(PacketType::Frag, f.tag, total as u64);
                match self.send_packet(f.dst, header, packet, 16 + len) {
                    Ok(()) => {
                        f.next_offset = end;
                        issued += 1;
                    }
                    Err(e) if e.is_retryable() => return issued,
                    Err(_) => {
                        self.finish(f.send_id, false);
                        inner.failed.store(true, Ordering::Release);
                        q.pop_front();
                        return issued;
                    }
                }
            }
            // Whole payload copied into the fabric: the send is complete
            // from the user's perspective.
            self.finish(f.send_id, true);
            q.pop_front();
        }
        issued
    }

    /// Try to inject a rendezvous put. Returns false on back-pressure (the
    /// caller keeps the `PendingPut` for retry; its request stays parked).
    fn issue_put(&self, p: &PendingPut) -> bool {
        // The put's context is its send request's id: `PutDone` completes it.
        match self
            .inner
            .ep
            .try_put(p.dst, p.key, 0, &p.payload, p.id, Some(p.imm))
        {
            Ok(()) => true,
            Err(SendError::Backpressure) => false,
            Err(_) => {
                self.finish(p.id, false);
                self.inner.failed.store(true, Ordering::Release);
                true // fatal: don't retry
            }
        }
    }

    /// Unpark the request `id` names and mark it done or failed.
    fn finish(&self, id: u64, done: bool) {
        if let Some(req) = self.inner.parked.lock().take(id) {
            if done {
                req.mark_done();
            } else {
                req.mark_error();
            }
        }
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
