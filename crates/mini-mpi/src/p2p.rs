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
//!
//! A rendezvous (`RTS` → `RTR` → RDMA put) runs on the fabric's rendezvous
//! core, the one LCI uses ([`Rendezvous`]: the shared request, the id table
//! and its claim rule, the RTR, the deferred puts and the put completions).
//! What is mini-mpi's own is around it: matching, the per-pair reorder
//! stage, the 16-byte `RTS` envelope, the reserved put contexts and every
//! [`Personality`] charge.

use crate::error::MpiError;
use crate::matching::{decode_rts_envelope, Matching, MpiStatus, PostedRecv, UnexBody, UnexMsg};
use crate::personality::Personality;
use crate::rma::{RmaState, WinRegistry};
use bytes::Bytes;
use lci_fabric::busy::spin_for_ns;
use lci_fabric::reliable::{RelRecv, ReliableSession, REL_DATA_OFFSET};
use lci_fabric::{Endpoint, Event, Held, PendingPuts, Rendezvous, Req, SendError};
use lci_trace::Counter;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A request: the fabric's shared rendezvous request, with the matched
/// status beside it.
pub(crate) type Request = Req<Bytes, Mutex<Option<MpiStatus>>>;

/// Handle to a non-blocking send. Completion is observed via
/// [`MpiComm::test_send`] (which, unlike an LCI flag check, polls the
/// network — that is MPI's model).
pub struct SendReq {
    pub(crate) inner: Arc<Request>,
}

/// Handle to a non-blocking receive; see [`MpiComm::test_recv`] and
/// [`RecvReq::take_data`].
pub struct RecvReq {
    pub(crate) inner: Arc<Request>,
}

/// Complete `req` as the receive of `data` from `src` with `tag`.
fn land(req: &Request, src: u16, tag: u32, data: Vec<u8>) {
    *req.meta.lock() = Some(MpiStatus { src, tag, len: data.len() });
    *req.held() = Held::Landed(data);
    req.mark_done();
}

impl RecvReq {
    /// Source/tag/len of the matched message (available once complete).
    pub fn status(&self) -> Option<MpiStatus> {
        *self.inner.meta.lock()
    }

    /// Claim the received payload (once, after completion).
    pub fn take_data(&self) -> Option<Vec<u8>> {
        self.inner.take_landed()
    }
}

/// Put contexts: 0 = ignorable control send, 1 = RMA put; any other is the
/// [`Rendezvous`] id of a rendezvous put's send request (never 0 or 1).
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

// ---- communicator ----------------------------------------------------------

pub(crate) struct State {
    /// The reliable sublayer: framing, sequencing, dedup, ack/retransmit,
    /// and peer-failure detection for every two-sided wire message.
    rel: ReliableSession,
    /// The next two-sided message sequence number toward each rank.
    send_seq: Vec<u64>,
    pub matching: Matching,
    reorder: Vec<Reorder>,
    /// The puts RTRs asked for, until the injection queue takes them.
    pending_puts: PendingPuts<Bytes>,
    /// Every request a rendezvous id names, from its RTS (sender) or RTR
    /// (receiver) to its put's completion.
    parked: Rendezvous<Bytes, Mutex<Option<MpiStatus>>>,
    pub rma: RmaState,
    pub failed: Option<String>,
    /// The endpoint's completions, taken a batch at a time
    /// ([`Endpoint::drain_into`]) and handled in queue order. What a batch
    /// still holds when progress re-enters (a send that meets back-pressure
    /// progresses) is handled first, so the order stays the queue's.
    events: VecDeque<Event>,
}

struct CommInner {
    ep: Endpoint,
    cfg: MpiConfig,
    rank: u16,
    nranks: usize,
    state: Mutex<State>,
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
                    rel: ReliableSession::new(&ep).with_window(eager_credits),
                    send_seq: vec![0; nranks],
                    matching: Matching::default(),
                    reorder: (0..nranks).map(|_| Reorder::default()).collect(),
                    pending_puts: PendingPuts::default(),
                    parked: Rendezvous::new(&ep, Counter::MpiMalformedDropped),
                    rma: RmaState::default(),
                    failed: None,
                    events: VecDeque::new(),
                }),
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

    /// Send an empty control message, charging call overhead.
    pub(crate) fn ctrl_send(&self, dst: u16, header: u64) -> Result<(), MpiError> {
        let mut st = self.enter()?;
        self.wire_send(&mut st, dst, header, &[], CTX_IGNORE)
    }

    /// Charge per-call overheads and lock the state (RMA synchronization
    /// waits enter the same way).
    pub(crate) fn enter(&self) -> Result<parking_lot::MutexGuard<'_, State>, MpiError> {
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
    /// fabric epoch ([`ReliableSession::probe_epoch`]), just before a
    /// respawn bumps it. Takes the state lock without `enter()`: the
    /// communicator is typically already failed.
    pub fn flush_epoch_probe(&self) {
        self.inner.state.lock().rel.probe_epoch(&self.inner.ep);
    }

    /// Ask `peer` to acknowledge ([`ReliableSession::ping`]), for a caller
    /// that waits on a peer it owes nothing: a peer that has crashed or left
    /// never answers, the retry budget declares it unreachable, and the
    /// next progress call fails this communicator. A ping the window cannot
    /// take is skipped, since the frames filling it do the same. Like the
    /// epoch probe it charges no call overhead: it is not an MPI call.
    pub fn ping(&self, peer: u16) {
        let _ = self.inner.state.lock().rel.ping(&self.inner.ep, peer);
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
    /// layer is quiescent ([`PendingPuts::settled`]). Inspects state
    /// only — pair with a progress call (or use [`MpiComm::quiesce`]).
    pub fn quiescent(&self) -> bool {
        let st = self.inner.state.lock();
        st.pending_puts.settled(&st.rel)
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
            match st.rel.send(&self.inner.ep, dst, header, data, ctx) {
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
        st.rel.pump(&inner.ep);
        if st.failed.is_none() {
            if let Some(h) = st.rel.dead_peer() {
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
        loop {
            let Some(ev) = st.events.pop_front() else {
                if inner.ep.drain_into(&mut st.events) == 0 {
                    break;
                }
                continue;
            };
            match ev {
                Event::Recv { src, header, data } => {
                    // Run the reliable layer before decoding anything — in
                    // particular before the id in an RTR below is looked
                    // up. Ghost copies injected by the fabric's
                    // corrupt/truncate faults fail the checksum; duplicates
                    // (ghosts or retransmissions) re-use an admitted
                    // sequence number; ack frames carry no payload.
                    match st.rel.on_recv(&inner.ep, src, header, &data) {
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
                        // the reliable layer): its ids name requests of a
                        // discarded communicator — never decode them.
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
                            let body = &data[REL_DATA_OFFSET..];
                            if let Some(put) = st.parked.on_rtr(&inner.ep, src, body) {
                                st.pending_puts.push(put);
                            }
                        }
                        KIND_RMA_POST => st.rma.on_post(tag as u64),
                        KIND_RMA_COMPLETE => st.rma.on_complete(tag as u64, src),
                        KIND_RMA_FENCE => st.rma.on_fence(tag as u64),
                        _ => inner.ep.counters().incr(Counter::MpiMalformedDropped),
                    }
                }
                // Never posted: every wire send here is unsignaled
                // (`CTX_IGNORE`); the reliable window holds the frame.
                Event::SendDone { .. } => {}
                Event::PutDone { ctx, epoch } => match ctx {
                    CTX_RMA_PUT => {
                        inner.outstanding_rma_puts.fetch_sub(1, Ordering::AcqRel);
                    }
                    CTX_IGNORE => {}
                    id => st.parked.on_put_done(&inner.ep, id, epoch),
                },
                Event::PutArrived { imm, epoch, .. } => {
                    st.parked.on_put_arrived(&inner.ep, imm, epoch);
                }
                Event::Error { kind, ctx } => {
                    st.failed = Some(format!("fabric error: {kind:?}"));
                    // A rendezvous put's send request fails; the reserved
                    // contexts name nothing.
                    st.parked.on_put_error(ctx);
                }
            }
        }

        // Inject the puts RTRs asked for, and those back-pressure deferred.
        if let Err(e) = st.pending_puts.retry(&inner.ep, &mut st.parked) {
            st.failed = Some(format!("rendezvous put failed: {e}"));
        }
        self.charge_matching(st);
    }

    /// Charge the matching-list traversal done since the last charge.
    fn charge_matching(&self, st: &mut State) {
        let traversed = st.matching.drain_traversed();
        spin_for_ns(traversed * self.inner.cfg.personality.match_cost_ns);
    }

    /// An in-order two-sided arrival: match a posted receive or queue it.
    fn deliver_two_sided(&self, st: &mut State, src: u16, m: SeqMsg) {
        match m.kind {
            KIND_EAGER => {
                if let Some(posted) = st.matching.take_posted(src, m.tag) {
                    land(&posted.req, src, m.tag, m.data);
                } else {
                    st.matching.unexpected.push_back(UnexMsg {
                        src,
                        tag: m.tag,
                        body: UnexBody::Eager(m.data),
                    });
                }
            }
            KIND_RTS => {
                let Some((size, send_id)) = decode_rts_envelope(&m.data) else {
                    self.inner.ep.counters().incr(Counter::MpiMalformedDropped);
                    return;
                };
                if let Some(posted) = st.matching.take_posted(src, m.tag) {
                    self.start_rendezvous_recv(st, src, m.tag, size, send_id, posted.req);
                } else {
                    st.matching.unexpected.push_back(UnexMsg {
                        src,
                        tag: m.tag,
                        body: UnexBody::Rts { size, send_id },
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
        send_id: u64,
        req: Arc<Request>,
    ) {
        *req.meta.lock() = Some(MpiStatus { src, tag, len: size });
        let (_, body) = st.parked.answer(&self.inner.ep, &req, send_id, size);
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
        let seq = st.send_seq[dst as usize];
        st.send_seq[dst as usize] += 1;
        if data.len() <= self.inner.cfg.eager_limit {
            let header = pack(KIND_EAGER, tag, seq);
            self.wire_send(&mut st, dst, header, &data, CTX_IGNORE)?;
            let req = Req::new(Held::Empty, Mutex::default());
            req.mark_done();
            Ok(SendReq { inner: req })
        } else {
            let mut body = [0u8; 16];
            body[..8].copy_from_slice(&(data.len() as u64).to_le_bytes());
            let req = Req::new(Held::Payload(data), Mutex::default());
            body[8..16].copy_from_slice(&st.parked.park(&req).to_le_bytes());
            let header = pack(KIND_RTS, tag, seq);
            // A refused RTS fails the communicator, its table with it.
            self.wire_send(&mut st, dst, header, &body, CTX_IGNORE)?;
            Ok(SendReq { inner: req })
        }
    }

    /// Non-blocking receive (`MPI_Irecv`) with optional wildcards.
    pub fn irecv(&self, src: Option<u16>, tag: Option<u32>) -> Result<RecvReq, MpiError> {
        let mut st = self.enter()?;
        self.progress_locked(&mut st);
        let req = Req::new(Held::Empty, Mutex::default());
        match st.matching.take_unexpected(src, tag) {
            Some(UnexMsg { src, tag, body }) => match body {
                UnexBody::Eager(data) => land(&req, src, tag, data),
                UnexBody::Rts { size, send_id } => {
                    let req = Arc::clone(&req);
                    self.start_rendezvous_recv(&mut st, src, tag, size, send_id, req);
                }
            },
            None => st.matching.posted.push_back(PostedRecv {
                src,
                tag,
                req: Arc::clone(&req),
            }),
        }
        self.charge_matching(&mut st);
        Ok(RecvReq { inner: req })
    }

    /// Non-blocking probe (`MPI_Iprobe`) with optional wildcards.
    pub fn iprobe(&self, src: Option<u16>, tag: Option<u32>) -> Result<Option<MpiStatus>, MpiError> {
        let mut st = self.enter()?;
        spin_for_ns(self.inner.cfg.personality.probe_extra_ns);
        self.progress_locked(&mut st);
        let status = st.matching.probe(src, tag);
        self.charge_matching(&mut st);
        Ok(status)
    }

    /// Test a send for completion (`MPI_Test`): polls the network.
    pub fn test_send(&self, req: &SendReq) -> Result<bool, MpiError> {
        self.test(&req.inner)
    }

    /// Test a receive for completion (`MPI_Test`): polls the network.
    pub fn test_recv(&self, req: &RecvReq) -> Result<bool, MpiError> {
        self.test(&req.inner)
    }

    fn test(&self, req: &Request) -> Result<bool, MpiError> {
        let mut st = self.enter()?;
        self.progress_locked(&mut st);
        if req.is_error() {
            return Err(MpiError::Fatal("request failed".into()));
        }
        Ok(req.is_done())
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
    use crate::MpiWorld;
    use lci_fabric::encode_rtr as encode_rtr_envelope;
    use lci_fabric::FabricConfig;

    #[test]
    fn header_roundtrip() {
        let h = pack(KIND_RTS, 12345, 678);
        assert_eq!(unpack(h), (KIND_RTS, 12345, 678));
        let h = pack(KIND_RMA_FENCE, MAX_TAG, u32::MAX as u64);
        assert_eq!(unpack(h), (KIND_RMA_FENCE, MAX_TAG, u32::MAX as u64));
    }

    /// Above the default eager limit: every message this size is a rendezvous.
    const BIG: usize = 16 << 10;

    /// A two-rank world on the caller-stepped fabric.
    fn world(seed: u64) -> MpiWorld {
        MpiWorld::new_manual(FabricConfig::deterministic(2, seed), MpiConfig::default())
    }

    /// Step the wire (adding virtual time when it is idle) until `done`.
    fn drive(w: &MpiWorld, mut done: impl FnMut() -> bool) {
        let f = w.fabric();
        for _ in 0..100_000 {
            if done() {
                return;
            }
            if !f.step() {
                f.advance_virtual(f.config().reliable.ack_delay_ns);
            }
        }
        panic!("the wire never settled");
    }

    /// Seal an RTR from `from` to rank 0 exactly as `from` would its own.
    fn forge_rtr(from: &MpiComm, tag: u32, body: [u8; 24]) {
        let mut st = from.inner.state.lock();
        let header = pack(KIND_RTR, tag, 0);
        let sent = from.wire_send(&mut st, 0, header, &body, CTX_IGNORE);
        sent.expect("sealed");
    }

    fn counted(c: &MpiComm, counter: Counter) -> u64 {
        c.endpoint().counters().get(counter)
    }

    /// Has the RTR for `s` been answered with a put (its payload taken)?
    fn answered(s: &SendReq) -> bool {
        matches!(*s.inner.held(), Held::Empty)
    }

    #[test]
    fn an_rtr_naming_no_send_request_is_dropped_and_counted() {
        let w = world(0x1D7);
        let (a, b) = (w.comm(0), w.comm(1));
        forge_rtr(&b, 4, encode_rtr_envelope(0xBAD, 0, 0xBAD));
        drive(&w, || {
            a.poke().unwrap();
            counted(&a, Counter::MpiMalformedDropped) > 0
        });
        assert!(a.failure().is_none());
        // Later traffic completes, and counts nothing more.
        let s = a.isend(Bytes::from(vec![3u8; BIG]), 1, 5).unwrap();
        let r = b.irecv(Some(0), Some(5)).unwrap();
        drive(&w, || a.test_send(&s).unwrap() & b.test_recv(&r).unwrap());
        assert_eq!(r.take_data().unwrap(), vec![3u8; BIG]);
        assert_eq!(counted(&a, Counter::MpiMalformedDropped), 1);
    }

    #[test]
    fn a_second_rtr_for_an_answered_send_is_dropped_and_counted() {
        let w = world(0x1D8);
        let (a, b) = (w.comm(0), w.comm(1));
        let s = a.isend(Bytes::from(vec![6u8; BIG]), 1, 7).unwrap();
        // The RTS reaches rank 1 before it posts a receive: its id waits in
        // the unexpected queue, where the test reads it.
        drive(&w, || {
            b.poke().unwrap();
            !b.inner.state.lock().matching.unexpected.is_empty()
        });
        let send_id = match b.inner.state.lock().matching.unexpected[0].body {
            UnexBody::Rts { send_id, .. } => send_id,
            UnexBody::Eager(_) => panic!("a rendezvous announces itself with an RTS"),
        };
        let r = b.irecv(Some(0), Some(7)).unwrap();
        drive(&w, || {
            a.poke().unwrap();
            answered(&s)
        });
        // Answered, its put in flight: a second RTR finds no payload.
        forge_rtr(&b, 7, encode_rtr_envelope(send_id, 0, 0xBAD));
        drive(&w, || a.test_send(&s).unwrap() & b.test_recv(&r).unwrap());
        assert_eq!(r.take_data().unwrap(), vec![6u8; BIG]);
        assert_eq!(counted(&a, Counter::MpiMalformedDropped), 1);
        // Completed: the id names nothing.
        forge_rtr(&b, 7, encode_rtr_envelope(send_id, 0, 0xBAD));
        drive(&w, || {
            a.poke().unwrap();
            counted(&a, Counter::MpiMalformedDropped) > 1
        });
        assert_eq!(counted(&a, Counter::MpiMalformedDropped), 2);
        assert!(a.failure().is_none());
    }

    #[test]
    fn a_stale_put_completion_cannot_complete_a_request_of_the_new_communicator() {
        let mut w = world(0x1D9);
        let (a, b) = (w.comm(0), w.comm(1));
        let old = a.isend(Bytes::from(vec![1u8; BIG]), 1, 1).unwrap();
        let _r = b.irecv(Some(0), Some(1)).unwrap();
        // Stop the wire as soon as rank 0 has answered the RTR: its put is
        // injected, not yet delivered.
        drive(&w, || {
            a.poke().unwrap();
            b.poke().unwrap();
            answered(&old)
        });
        assert!(a.inner.state.lock().pending_puts.is_empty(), "put in flight");
        w.fabric().respawn(1);
        w.rejoin(MpiConfig::default());
        let (a, b) = (w.comm(0), w.comm(1));
        let new = a.isend(Bytes::from(vec![2u8; BIG]), 1, 1).unwrap();
        // The old put lands in the new epoch: its write is suppressed, and
        // its completion names nothing the new communicator parked.
        w.fabric().drain();
        let stale = counted(&a, Counter::FabricEpochStaleDropped);
        assert!(!a.test_send(&new).unwrap());
        assert_eq!(counted(&a, Counter::FabricEpochStaleDropped), stale + 1);
        assert_eq!(counted(&a, Counter::MpiMalformedDropped), 0);
        assert!(!old.inner.is_done(), "nor the old communicator's");
        // The new rendezvous completes on its own put.
        let r = b.irecv(Some(0), Some(1)).unwrap();
        drive(&w, || a.test_send(&new).unwrap() & b.test_recv(&r).unwrap());
        assert_eq!(r.take_data().unwrap(), vec![2u8; BIG]);
    }
}
