//! Two-sided point-to-point: `isend` / `irecv` / `iprobe` / `test`.
//!
//! All communicator state lives behind one mutex, mirroring the coarse
//! locking of deployed MPI implementations. With
//! [`ThreadLevel::Multiple`] an extra lock-acquisition overhead is charged
//! on every call (the paper: "currently deployed implementations are known
//! to suffer substantial performance loss when `MPI_THREAD_MULTIPLE` is
//! used"); with [`ThreadLevel::Funneled`] the lock is uncontended by
//! construction and costs little.
//!
//! Progress is *explicit*: the network only advances inside MPI calls. This
//! is the second structural difference from LCI, whose dedicated server
//! progresses continuously.

use crate::error::MpiError;
use crate::matching::{
    decode_rts_envelope, decode_rtr_envelope, Matching, MpiStatus, PostedRecv, UnexBody, UnexMsg,
};
use crate::personality::Personality;
use crate::rma::{RmaState, WinRegistry};
use bytes::Bytes;
use lci_fabric::busy::spin_for_ns;
use lci_fabric::reliable::{RelRecv, ReliableSession, REL_DATA_OFFSET};
use lci_fabric::{Endpoint, Event, MemRegion, SendError};
use lci_trace::Counter;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU8, AtomicU64, Ordering};
use std::sync::Arc;

/// MPI threading level of a communicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadLevel {
    /// Only one thread makes MPI calls (no locking overhead charged).
    Funneled,
    /// Any thread may call; every call pays the global-lock overhead.
    Multiple,
}

/// Configuration for a [`MpiComm`].
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Messages at or below this size use the eager protocol.
    pub eager_limit: usize,
    /// Simulated implementation overheads.
    pub personality: Personality,
    /// Threading level.
    pub thread_level: ThreadLevel,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            eager_limit: 8 << 10,
            personality: Personality::default(),
            thread_level: ThreadLevel::Funneled,
        }
    }
}

impl MpiConfig {
    /// Builder-style personality override.
    pub fn with_personality(mut self, p: Personality) -> Self {
        self.personality = p;
        self
    }

    /// Builder-style thread-level override.
    pub fn with_thread_level(mut self, t: ThreadLevel) -> Self {
        self.thread_level = t;
        self
    }
}

// ---- wire encoding -------------------------------------------------------

pub(crate) const KIND_EAGER: u64 = 0;
pub(crate) const KIND_RTS: u64 = 1;
pub(crate) const KIND_RTR: u64 = 2;
pub(crate) const KIND_RMA_POST: u64 = 3;
pub(crate) const KIND_RMA_COMPLETE: u64 = 4;
pub(crate) const KIND_RMA_FENCE: u64 = 5;

pub(crate) const MAX_TAG: u32 = (1 << 28) - 1;

pub(crate) fn pack(kind: u64, tag: u32, seq: u64) -> u64 {
    debug_assert!(tag <= MAX_TAG);
    debug_assert!(seq < (1 << 32));
    (kind << 60) | ((tag as u64) << 32) | seq
}

pub(crate) fn unpack(header: u64) -> (u64, u32, u64) {
    (
        header >> 60,
        ((header >> 32) & MAX_TAG as u64) as u32,
        header & 0xFFFF_FFFF,
    )
}

// ---- requests ------------------------------------------------------------

const PENDING: u8 = 0;
const DONE: u8 = 1;
const ERROR: u8 = 2;

pub(crate) enum ReqPayload {
    /// Nothing held.
    Empty,
    /// Rendezvous send payload, kept until the put completes.
    SendPayload(Bytes),
    /// Rendezvous receive landing region.
    RecvMr(MemRegion),
    /// Completed receive data.
    Ready(Vec<u8>),
}

/// Shared request state (send or receive).
pub struct ReqInner {
    status: AtomicU8,
    pub(crate) payload: Mutex<ReqPayload>,
    pub(crate) meta: Mutex<Option<MpiStatus>>,
}

impl ReqInner {
    pub(crate) fn new(payload: ReqPayload) -> Arc<Self> {
        Arc::new(ReqInner {
            status: AtomicU8::new(PENDING),
            payload: Mutex::new(payload),
            meta: Mutex::new(None),
        })
    }

    #[cfg(test)]
    pub(crate) fn new_for_test() -> Arc<Self> {
        Self::new(ReqPayload::Empty)
    }

    pub(crate) fn mark_done(&self) {
        self.status.store(DONE, Ordering::Release);
    }

    pub(crate) fn mark_error(&self) {
        self.status.store(ERROR, Ordering::Release);
    }

    pub(crate) fn is_done(&self) -> bool {
        self.status.load(Ordering::Acquire) == DONE
    }

    pub(crate) fn is_error(&self) -> bool {
        self.status.load(Ordering::Acquire) == ERROR
    }
}

/// Handle to a non-blocking send. Completion is observed via
/// [`MpiComm::test_send`] (which, unlike an LCI flag check, polls the
/// network — that is MPI's model).
pub struct SendReq {
    pub(crate) inner: Arc<ReqInner>,
}

/// Handle to a non-blocking receive; see [`MpiComm::test_recv`] and
/// [`RecvReq::take_data`].
pub struct RecvReq {
    pub(crate) inner: Arc<ReqInner>,
}

impl RecvReq {
    /// Source/tag/len of the matched message (available once complete).
    pub fn status(&self) -> Option<MpiStatus> {
        *self.inner.meta.lock()
    }

    /// Claim the received payload (once, after completion).
    pub fn take_data(&self) -> Option<Vec<u8>> {
        if !self.inner.is_done() {
            return None;
        }
        let mut p = self.inner.payload.lock();
        match std::mem::replace(&mut *p, ReqPayload::Empty) {
            ReqPayload::Ready(v) => Some(v),
            other => {
                *p = other;
                None
            }
        }
    }
}

// ---- cookies (same soundness argument as in `lci::device`) ---------------

fn req_cookie(req: Arc<ReqInner>) -> u64 {
    Arc::into_raw(req) as u64
}

/// # Safety
/// `cookie` must come from [`req_cookie`] and be consumed exactly once.
unsafe fn take_req(cookie: u64) -> Arc<ReqInner> {
    Arc::from_raw(cookie as *const ReqInner)
}

/// Put contexts: 0 = ignorable control send, 1 = RMA put, otherwise a boxed
/// request cookie for a rendezvous put. Box pointers are aligned, so they
/// can never collide with 0 or 1.
pub(crate) const CTX_IGNORE: u64 = 0;
pub(crate) const CTX_RMA_PUT: u64 = 1;

// ---- reorder stage -------------------------------------------------------

struct SeqMsg {
    seq: u64,
    tag: u32,
    kind: u64,
    data: Vec<u8>,
}

impl PartialEq for SeqMsg {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for SeqMsg {}
impl PartialOrd for SeqMsg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SeqMsg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.seq.cmp(&other.seq)
    }
}

#[derive(Default)]
struct Reorder {
    next: u64,
    held: BinaryHeap<Reverse<SeqMsg>>,
}

// ---- pending rendezvous put ----------------------------------------------

struct PendingPut {
    dst: u16,
    key: lci_fabric::MrKey,
    payload: Bytes,
    req: Arc<ReqInner>,
    imm: u64,
}

// ---- communicator ----------------------------------------------------------

pub(crate) struct State {
    pub matching: Matching,
    reorder: Vec<Reorder>,
    pending_puts: Vec<PendingPut>,
    pub rma: RmaState,
    pub failed: Option<String>,
}

struct CommInner {
    ep: Endpoint,
    cfg: MpiConfig,
    rank: u16,
    nranks: usize,
    state: Mutex<State>,
    /// The reliable sublayer: framing, sequencing, dedup, ack/retransmit,
    /// and peer-failure detection for every two-sided wire message. Lives
    /// outside the state mutex (it has its own interior locking), but every
    /// send and receive path holds the state lock anyway.
    rel: ReliableSession,
    send_seq: Vec<AtomicU64>,
    registry: Arc<WinRegistry>,
    outstanding_rma_puts: AtomicU64,
    win_counter: AtomicU64,
}

/// One host's MPI communicator (think `MPI_COMM_WORLD`). Cheap to clone.
#[derive(Clone)]
pub struct MpiComm {
    inner: Arc<CommInner>,
}

impl MpiComm {
    pub(crate) fn new(ep: Endpoint, cfg: MpiConfig, registry: Arc<WinRegistry>) -> MpiComm {
        let nranks = ep.num_hosts();
        let rank = ep.host();
        // MPI promises an eager send local completion: the message is
        // buffered, the call returns, and delivery asks nothing more of the
        // caller — a rank may send a burst and not enter the library again
        // until its peer has received all of it. What bounds the burst is
        // therefore not the transport's retransmit window, which opens only
        // when the *peer* polls, but what deployed MPIs hand out as eager
        // credits: the receiver's pre-posted buffers, shared among its
        // senders (and no deeper than the receiver's gate tracks).
        let rcfg = &ep.config().reliable;
        let eager_credits = (ep.config().rx_buffers / nranks)
            .min(rcfg.gate_window as usize)
            .max(rcfg.window);
        MpiComm {
            inner: Arc::new(CommInner {
                state: Mutex::new(State {
                    matching: Matching::default(),
                    reorder: (0..nranks).map(|_| Reorder::default()).collect(),
                    pending_puts: Vec::new(),
                    rma: RmaState::default(),
                    failed: None,
                }),
                rel: ReliableSession::new(&ep).with_window(eager_credits),
                send_seq: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
                registry,
                outstanding_rma_puts: AtomicU64::new(0),
                win_counter: AtomicU64::new(0),
                rank,
                nranks,
                cfg,
                ep,
            }),
        }
    }

    /// This communicator's rank.
    pub fn rank(&self) -> u16 {
        self.inner.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.inner.nranks
    }

    /// The configuration in use.
    pub fn config(&self) -> &MpiConfig {
        &self.inner.cfg
    }

    /// The underlying fabric endpoint (diagnostics).
    pub fn endpoint(&self) -> &Endpoint {
        &self.inner.ep
    }

    pub(crate) fn registry(&self) -> &Arc<WinRegistry> {
        &self.inner.registry
    }

    pub(crate) fn rma_puts_outstanding(&self) -> u64 {
        self.inner.outstanding_rma_puts.load(Ordering::Acquire)
    }

    pub(crate) fn rma_put_inc(&self) {
        self.inner.outstanding_rma_puts.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn rma_put_dec(&self) {
        self.inner.outstanding_rma_puts.fetch_sub(1, Ordering::AcqRel);
    }

    pub(crate) fn win_counter(&self) -> &AtomicU64 {
        &self.inner.win_counter
    }

    /// Lock the state for RMA synchronization waits (same entry costs as any
    /// other MPI call).
    pub(crate) fn state_for_rma(
        &self,
    ) -> Result<parking_lot::MutexGuard<'_, State>, MpiError> {
        self.enter()
    }

    /// Send an empty control message, charging call overhead.
    pub(crate) fn ctrl_send(&self, dst: u16, header: u64) -> Result<(), MpiError> {
        let mut st = self.enter()?;
        self.wire_send(&mut st, dst, header, &[], CTX_IGNORE)
    }

    /// Charge per-call overheads and lock the state.
    fn enter(&self) -> Result<parking_lot::MutexGuard<'_, State>, MpiError> {
        let p = &self.inner.cfg.personality;
        spin_for_ns(p.call_overhead_ns);
        if matches!(self.inner.cfg.thread_level, ThreadLevel::Multiple) {
            spin_for_ns(p.lock_overhead_ns);
        }
        let st = self.inner.state.lock();
        if let Some(msg) = &st.failed {
            return Err(MpiError::Fatal(msg.clone()));
        }
        Ok(st)
    }

    /// Seal one empty reliable frame to every peer under the *current*
    /// fabric epoch. The recovery driver calls this on each surviving
    /// communicator of the dead incarnation immediately before
    /// [`respawn`](lci_fabric::Fabric::respawn) bumps the epoch: the probes
    /// land after the bump, the fresh communicators' epoch gates classify
    /// them stale, and the `fabric.epoch.stale_dropped` evidence of the
    /// discarded incarnation is deterministic even when the survivors had
    /// quiesced before the crash was noticed. Bypasses `enter()` — the
    /// communicator is typically already failed — and ignores send errors.
    pub fn flush_epoch_probe(&self) {
        for dst in 0..self.inner.nranks as u16 {
            if dst != self.inner.rank {
                let _ = self.inner.rel.send(&self.inner.ep, dst, 0, &[], CTX_IGNORE);
            }
        }
    }

    /// The recorded fatal failure, if this communicator has died — e.g. the
    /// reliable sublayer exhausted its retransmission budget and declared a
    /// peer unreachable. Once set it never clears, and every subsequent MPI
    /// call returns [`MpiError::Fatal`] with this message; pollers use this
    /// accessor to abort bounded instead of spinning on a round that can no
    /// longer complete.
    pub fn failure(&self) -> Option<String> {
        self.inner.state.lock().failed.clone()
    }

    /// True when nothing this communicator sent is still in flight at the
    /// wire level: no rendezvous put awaits injection and the reliable
    /// layer is quiescent ([`ReliableSession::quiescent`]). Inspects state
    /// only — pair with a progress call (or use [`MpiComm::quiesce`]).
    pub fn quiescent(&self) -> bool {
        let st = self.inner.state.lock();
        st.pending_puts.is_empty() && self.inner.rel.quiescent()
    }

    /// Drive progress until [`MpiComm::quiescent`] holds or the
    /// communicator fails. A rank that stops polling while retransmissions
    /// are pending strands any peer whose only copy of a frame was dropped
    /// — the timers that resend it only fire from the progress loop — so
    /// collectives call this after their final message before retiring.
    pub fn quiesce(&self) {
        loop {
            {
                let mut st = self.inner.state.lock();
                if st.failed.is_some() {
                    return;
                }
                self.progress_locked(&mut st);
                if st.failed.is_some() {
                    return;
                }
            }
            if self.quiescent() {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Send a control/eager wire message, retrying on back-pressure.
    ///
    /// Real MPI blocks internally in this situation (or dies — see §III-B);
    /// we spin until the NIC accepts, which is the benign variant. The
    /// fabric can still fail us fatally via the RNR retry limit — which is
    /// exactly how an RNR-storm fault phase kills an MPI run while the LCI
    /// runtime (retryable initiation, no fatal exhaustion path) rides it
    /// out. That asymmetry is deliberate: it preserves the paper's §III-B
    /// contrast under the chaos test suite.
    pub(crate) fn wire_send(
        &self,
        st: &mut State,
        dst: u16,
        header: u64,
        data: &[u8],
        ctx: u64,
    ) -> Result<(), MpiError> {
        // The reliable session allocates the sequence number only when the
        // NIC accepts the injection, so re-offering after back-pressure
        // (full send window or full injection queue) never leaves a gap at
        // the receiver's dedup gate.
        loop {
            match self.inner.rel.send(&self.inner.ep, dst, header, data, ctx) {
                Ok(()) => return Ok(()),
                Err(SendError::Backpressure) => {
                    // Drain our own completions while waiting, or we can
                    // deadlock with a peer doing the same. The spin count is
                    // the MPI-side analogue of LCI's measured retries.
                    self.inner.ep.counters().incr(Counter::MpiBackpressureSpins);
                    self.progress_locked(st);
                    std::thread::yield_now();
                }
                Err(e) => {
                    // Including PeerDead: the reliable layer exhausted its
                    // retransmission budget against dst, so this run can
                    // never complete — fail fast instead of wedging.
                    let msg = format!("wire send failed: {e}");
                    st.failed = Some(msg.clone());
                    return Err(MpiError::Fatal(msg));
                }
            }
        }
    }

    /// Drain fabric events into the matching engine. Must hold the lock.
    pub(crate) fn progress_locked(&self, st: &mut State) {
        let inner = &self.inner;
        // Fire reliable-layer timers (retransmissions, standalone acks) and
        // surface a dead peer as a fatal communicator failure even when no
        // send is in flight to report it — barrier loops poll `enter()`.
        inner.rel.pump(&inner.ep);
        if st.failed.is_none() {
            if let Some(h) = inner.rel.dead_peer() {
                st.failed = Some(format!(
                    "peer {h} unreachable (retransmission budget exhausted)"
                ));
            }
        }
        if st.failed.is_none() && inner.ep.is_failed() {
            // The fabric endpoint itself died (e.g. this rank's crash-stop
            // fault fired): abort the rank's own calls promptly instead of
            // letting them spin against a dead NIC.
            st.failed = Some("fabric endpoint failed (host crashed)".to_string());
        }
        while let Some(ev) = inner.ep.poll() {
            match ev {
                Event::Recv { src, header, data } => {
                    // Run the reliable layer before decoding anything — in
                    // particular before the cookie-carrying RTR below is
                    // trusted. Ghost copies injected by the fabric's
                    // corrupt/truncate faults fail the checksum; duplicates
                    // (ghosts or retransmissions) re-use an admitted
                    // sequence number; ack frames carry no payload.
                    match inner.rel.on_recv(&inner.ep, src, header, &data) {
                        RelRecv::Data => {}
                        RelRecv::Duplicate => {
                            inner.ep.counters().incr(Counter::MpiDuplicateDropped);
                            continue;
                        }
                        RelRecv::Malformed => {
                            inner.ep.counters().incr(Counter::MpiMalformedDropped);
                            continue;
                        }
                        RelRecv::Ack => continue,
                        // Sealed under a dead fabric incarnation (counted by
                        // the reliable layer): its cookies belong to state
                        // torn down at the rejoin — never decode them.
                        RelRecv::Stale => continue,
                    }
                    let (kind, tag, seq) = unpack(header);
                    match kind {
                        KIND_EAGER | KIND_RTS => {
                            let mut raw = data.into_vec();
                            raw.drain(..REL_DATA_OFFSET);
                            let msg = SeqMsg {
                                seq,
                                tag,
                                kind,
                                data: raw,
                            };
                            let ready = {
                                let r = &mut st.reorder[src as usize];
                                // Defense in depth behind the wire gate: a
                                // message sequence we already released (or
                                // one already held) can only be a duplicate
                                // and must not wedge or corrupt the resequencer.
                                if msg.seq < r.next
                                    || r.held.iter().any(|Reverse(m)| m.seq == msg.seq)
                                {
                                    inner.ep.counters().incr(Counter::MpiDuplicateDropped);
                                    continue;
                                }
                                r.held.push(Reverse(msg));
                                // Release everything now deliverable in order.
                                let mut ready = Vec::new();
                                while r
                                    .held
                                    .peek()
                                    .is_some_and(|Reverse(m)| m.seq == r.next)
                                {
                                    let Reverse(m) = r.held.pop().expect("peeked");
                                    r.next += 1;
                                    ready.push(m);
                                }
                                ready
                            };
                            for m in ready {
                                self.deliver_two_sided(st, src, m);
                            }
                        }
                        KIND_RTR => {
                            let Some((send_cookie, key, recv_cookie)) =
                                decode_rtr_envelope(&data[REL_DATA_OFFSET..])
                            else {
                                inner.ep.counters().incr(Counter::MpiMalformedDropped);
                                continue;
                            };
                            drop(data);
                            // SAFETY: our RTS carried the cookie; one answer.
                            // Only checksummed, dedup-admitted frames reach
                            // this reconstruction.
                            let req = unsafe { take_req(send_cookie) };
                            let payload = {
                                let mut p = req.payload.lock();
                                match std::mem::replace(&mut *p, ReqPayload::Empty) {
                                    ReqPayload::SendPayload(b) => b,
                                    other => {
                                        *p = other;
                                        continue;
                                    }
                                }
                            };
                            st.pending_puts.push(PendingPut {
                                dst: src,
                                key: lci_fabric::MrKey(key),
                                payload,
                                req,
                                imm: recv_cookie,
                            });
                        }
                        KIND_RMA_POST => st.rma.on_post(tag as u64),
                        KIND_RMA_COMPLETE => st.rma.on_complete(tag as u64, src),
                        KIND_RMA_FENCE => st.rma.on_fence(tag as u64),
                        _ => inner.ep.counters().incr(Counter::MpiMalformedDropped),
                    }
                }
                Event::SendDone { ctx } => {
                    debug_assert_eq!(ctx, CTX_IGNORE);
                }
                // PutDone is consumed regardless of its epoch: the cookie
                // must be reclaimed exactly once whether or not the put's
                // memory write was suppressed as stale.
                Event::PutDone { ctx, .. } => match ctx {
                    CTX_RMA_PUT => {
                        inner.outstanding_rma_puts.fetch_sub(1, Ordering::AcqRel);
                    }
                    CTX_IGNORE => {}
                    cookie => {
                        // SAFETY: rendezvous put cookie, unique completion.
                        let req = unsafe { take_req(cookie) };
                        req.mark_done();
                    }
                },
                Event::PutArrived { imm, epoch, .. } => {
                    if imm == CTX_IGNORE {
                        continue;
                    }
                    // SAFETY: our RTR carried this cookie; echoed once, and
                    // the fabric emits no PutArrived for stale-epoch puts,
                    // so the cookie is unconsumed here.
                    let req = unsafe { take_req(imm) };
                    if epoch != inner.ep.fabric_epoch() {
                        // Straggler queued before a respawn but consumed
                        // after this rank rejoined: reclaim the parked
                        // reference without completing it.
                        inner.ep.counters().incr(Counter::FabricEpochStaleDropped);
                        req.mark_error();
                        continue;
                    }
                    let mut p = req.payload.lock();
                    if let ReqPayload::RecvMr(mr) =
                        std::mem::replace(&mut *p, ReqPayload::Empty)
                    {
                        let key = mr.key();
                        let v = mr.take();
                        inner.ep.deregister_mr(key);
                        *p = ReqPayload::Ready(v);
                    }
                    drop(p);
                    req.mark_done();
                }
                Event::Error { kind, .. } => {
                    st.failed = Some(format!("fabric error: {kind:?}"));
                }
            }
        }

        // Retry pending rendezvous puts.
        let mut i = 0;
        while i < st.pending_puts.len() {
            let p = &st.pending_puts[i];
            let cookie = req_cookie(Arc::clone(&p.req));
            match inner
                .ep
                .try_put(p.dst, p.key, 0, &p.payload, cookie, Some(p.imm))
            {
                Ok(()) => {
                    st.pending_puts.swap_remove(i);
                }
                Err(SendError::Backpressure) => {
                    // SAFETY: rejected synchronously.
                    let _ = unsafe { take_req(cookie) };
                    i += 1;
                }
                Err(e) => {
                    // SAFETY: rejected synchronously.
                    let req = unsafe { take_req(cookie) };
                    req.mark_error();
                    st.pending_puts.swap_remove(i);
                    st.failed = Some(format!("rendezvous put failed: {e}"));
                }
            }
        }

        // Charge matching-list traversal done since the last drain.
        let traversed = st.matching.drain_traversed();
        spin_for_ns(traversed * inner.cfg.personality.match_cost_ns);
    }

    /// An in-order two-sided arrival: match a posted receive or park it.
    fn deliver_two_sided(&self, st: &mut State, src: u16, m: SeqMsg) {
        match m.kind {
            KIND_EAGER => {
                if let Some(posted) = st.matching.take_posted(src, m.tag) {
                    *posted.req.meta.lock() = Some(MpiStatus {
                        src,
                        tag: m.tag,
                        len: m.data.len(),
                    });
                    *posted.req.payload.lock() = ReqPayload::Ready(m.data);
                    posted.req.mark_done();
                } else {
                    st.matching.unexpected.push_back(UnexMsg {
                        src,
                        tag: m.tag,
                        seq: m.seq,
                        body: UnexBody::Eager(m.data),
                    });
                }
            }
            KIND_RTS => {
                let Some((size, send_cookie)) = decode_rts_envelope(&m.data) else {
                    self.inner.ep.counters().incr(Counter::MpiMalformedDropped);
                    return;
                };
                if let Some(posted) = st.matching.take_posted(src, m.tag) {
                    self.start_rendezvous_recv(st, src, m.tag, size, send_cookie, posted.req);
                } else {
                    st.matching.unexpected.push_back(UnexMsg {
                        src,
                        tag: m.tag,
                        seq: m.seq,
                        body: UnexBody::Rts { size, send_cookie },
                    });
                }
            }
            _ => unreachable!("only two-sided kinds are sequenced"),
        }
    }

    /// Receiver side of a rendezvous: register a landing region, answer RTR.
    fn start_rendezvous_recv(
        &self,
        st: &mut State,
        src: u16,
        tag: u32,
        size: usize,
        send_cookie: u64,
        req: Arc<ReqInner>,
    ) {
        let mr = self.inner.ep.register_mr(size);
        let key = mr.key();
        *req.meta.lock() = Some(MpiStatus { src, tag, len: size });
        *req.payload.lock() = ReqPayload::RecvMr(mr);
        let recv_cookie = req_cookie(req);
        let mut body = [0u8; 24];
        body[..8].copy_from_slice(&send_cookie.to_le_bytes());
        body[8..16].copy_from_slice(&key.0.to_le_bytes());
        body[16..].copy_from_slice(&recv_cookie.to_le_bytes());
        let header = pack(KIND_RTR, tag, 0);
        // Control sends must not be dropped; retry until accepted.
        let _ = self.wire_send(st, src, header, &body, CTX_IGNORE);
    }

    /// Non-blocking send (`MPI_Isend`). Eager messages complete immediately
    /// (the payload is copied out); larger messages complete when the
    /// rendezvous put finishes.
    pub fn isend(&self, data: Bytes, dst: u16, tag: u32) -> Result<SendReq, MpiError> {
        if tag > MAX_TAG {
            return Err(MpiError::Invalid(format!("tag {tag} too large")));
        }
        if dst as usize >= self.inner.nranks {
            return Err(MpiError::Invalid(format!("bad rank {dst}")));
        }
        let mut st = self.enter()?;
        let seq = self.inner.send_seq[dst as usize].fetch_add(1, Ordering::Relaxed);
        if data.len() <= self.inner.cfg.eager_limit {
            let header = pack(KIND_EAGER, tag, seq);
            self.wire_send(&mut st, dst, header, &data, CTX_IGNORE)?;
            let req = ReqInner::new(ReqPayload::Empty);
            req.mark_done();
            Ok(SendReq { inner: req })
        } else {
            let req = ReqInner::new(ReqPayload::SendPayload(data.clone()));
            let cookie = req_cookie(Arc::clone(&req));
            let mut body = [0u8; 16];
            body[..8].copy_from_slice(&(data.len() as u64).to_le_bytes());
            body[8..16].copy_from_slice(&cookie.to_le_bytes());
            let header = pack(KIND_RTS, tag, seq);
            match self.wire_send(&mut st, dst, header, &body, CTX_IGNORE) {
                Ok(()) => Ok(SendReq { inner: req }),
                Err(e) => {
                    // SAFETY: RTS never left; reclaim the cookie.
                    let _ = unsafe { take_req(cookie) };
                    Err(e)
                }
            }
        }
    }

    /// Non-blocking receive (`MPI_Irecv`) with optional wildcards.
    pub fn irecv(&self, src: Option<u16>, tag: Option<u32>) -> Result<RecvReq, MpiError> {
        let mut st = self.enter()?;
        self.progress_locked(&mut st);
        if let Some(unex) = st.matching.take_unexpected(src, tag) {
            let req = ReqInner::new(ReqPayload::Empty);
            match unex.body {
                UnexBody::Eager(data) => {
                    *req.meta.lock() = Some(MpiStatus {
                        src: unex.src,
                        tag: unex.tag,
                        len: data.len(),
                    });
                    *req.payload.lock() = ReqPayload::Ready(data);
                    req.mark_done();
                }
                UnexBody::Rts { size, send_cookie } => {
                    self.start_rendezvous_recv(
                        &mut st,
                        unex.src,
                        unex.tag,
                        size,
                        send_cookie,
                        Arc::clone(&req),
                    );
                }
            }
            let traversed = st.matching.drain_traversed();
            spin_for_ns(traversed * self.inner.cfg.personality.match_cost_ns);
            return Ok(RecvReq { inner: req });
        }
        let traversed = st.matching.drain_traversed();
        spin_for_ns(traversed * self.inner.cfg.personality.match_cost_ns);
        let req = ReqInner::new(ReqPayload::Empty);
        st.matching.posted.push_back(PostedRecv {
            src,
            tag,
            req: Arc::clone(&req),
        });
        Ok(RecvReq { inner: req })
    }

    /// Non-blocking probe (`MPI_Iprobe`) with optional wildcards.
    pub fn iprobe(&self, src: Option<u16>, tag: Option<u32>) -> Result<Option<MpiStatus>, MpiError> {
        let mut st = self.enter()?;
        spin_for_ns(self.inner.cfg.personality.probe_extra_ns);
        self.progress_locked(&mut st);
        let status = st.matching.probe(src, tag);
        let traversed = st.matching.drain_traversed();
        spin_for_ns(traversed * self.inner.cfg.personality.match_cost_ns);
        Ok(status)
    }

    /// Test a send for completion (`MPI_Test`): polls the network.
    pub fn test_send(&self, req: &SendReq) -> Result<bool, MpiError> {
        let mut st = self.enter()?;
        self.progress_locked(&mut st);
        if req.inner.is_error() {
            return Err(MpiError::Fatal("request failed".into()));
        }
        Ok(req.inner.is_done())
    }

    /// Test a receive for completion (`MPI_Test`): polls the network.
    pub fn test_recv(&self, req: &RecvReq) -> Result<bool, MpiError> {
        let mut st = self.enter()?;
        self.progress_locked(&mut st);
        if req.inner.is_error() {
            return Err(MpiError::Fatal("request failed".into()));
        }
        Ok(req.inner.is_done())
    }

    /// Drive progress without any other effect (the dedicated polling thread
    /// of the paper's MPI-RMA layer calls this in a loop).
    pub fn poke(&self) -> Result<(), MpiError> {
        let mut st = self.enter()?;
        self.progress_locked(&mut st);
        Ok(())
    }

    /// Blocking receive convenience (`MPI_Recv`): probe-style loop.
    pub fn recv_blocking(
        &self,
        src: Option<u16>,
        tag: Option<u32>,
    ) -> Result<(MpiStatus, Vec<u8>), MpiError> {
        let req = self.irecv(src, tag)?;
        while !self.test_recv(&req)? {
            std::thread::yield_now();
        }
        let status = req.status().expect("completed recv has status");
        let data = req.take_data().expect("completed recv has data");
        Ok((status, data))
    }

    /// Blocking send convenience (`MPI_Send`).
    pub fn send_blocking(&self, data: Bytes, dst: u16, tag: u32) -> Result<(), MpiError> {
        let req = self.isend(data, dst, tag)?;
        while !self.test_send(&req)? {
            std::thread::yield_now();
        }
        Ok(())
    }
}

impl std::fmt::Debug for MpiComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpiComm")
            .field("rank", &self.rank())
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = pack(KIND_RTS, 12345, 678);
        assert_eq!(unpack(h), (KIND_RTS, 12345, 678));
        let h = pack(KIND_RMA_FENCE, MAX_TAG, u32::MAX as u64);
        assert_eq!(unpack(h), (KIND_RMA_FENCE, MAX_TAG, u32::MAX as u64));
    }
}
