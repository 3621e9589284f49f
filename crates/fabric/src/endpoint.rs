//! Host endpoints: the injection and completion interface of the simulated NIC.

use crate::error::SendError;
use crate::mr::{MemRegion, MrInner, MrKey};
use crate::stats::StatsSnapshot;
use crate::wire::{FabricShared, PutOp, SendOp, WireOp};
use crate::HostId;
use lci_trace::{Counter, EventKind, Registry};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a fatal [`Event::Error`] was delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatalKind {
    /// A message exhausted its receiver-not-ready retry budget; the sending
    /// endpoint has been failed. This is the simulated analogue of the
    /// unrecoverable resource-exhaustion errors the paper saw with MPI.
    RnrExceeded,
    /// An RDMA put targeted a missing or undersized memory region.
    BadMr,
}

/// A completion-queue event, retrieved with [`Endpoint::poll`] or, a batch at
/// a time, [`Endpoint::drain_into`].
#[derive(Debug)]
pub enum Event {
    /// An eager message arrived.
    Recv {
        /// Sending rank.
        src: HostId,
        /// The 64-bit user header supplied at `try_send`.
        header: u64,
        /// Payload. Dropping it returns the receive buffer credit.
        data: PacketBuf,
    },
    /// A previously injected signaled `try_send` (context ≠ 0) is done with:
    /// the wire delivered it, or ate it (a lossy fault, a crash). A send
    /// injected with context 0 is unsignaled and never posts one.
    SendDone {
        /// The user context supplied at injection, never 0.
        ctx: u64,
    },
    /// A previously injected `try_put` has left the NIC. The write landed
    /// only if the put's epoch was still current at delivery; a stale put
    /// (injected before a [`crate::Fabric::respawn`]) completes without
    /// writing.
    PutDone {
        /// The user context supplied at injection.
        ctx: u64,
        /// Recovery epoch the put was injected under. Consumers resuming
        /// after a respawn drop completions whose epoch predates
        /// [`Endpoint::fabric_epoch`].
        epoch: u32,
    },
    /// A peer's put into one of our regions completed with an immediate value.
    PutArrived {
        /// The rank that performed the put.
        src: HostId,
        /// The immediate value the peer attached.
        imm: u64,
        /// Number of bytes written.
        len: u32,
        /// Recovery epoch the put was injected under. An event queued before
        /// a crash but consumed after the respawn is from a dead incarnation;
        /// consumers compare against [`Endpoint::fabric_epoch`] and discard.
        epoch: u32,
    },
    /// A fatal error attributed to an operation this endpoint injected.
    Error {
        /// What went wrong.
        kind: FatalKind,
        /// The user context of the failed operation.
        ctx: u64,
    },
}

/// An endpoint's receive credits: its pre-posted receive buffers not holding
/// a message. The counter is private to this type, so a credit is taken only
/// by [`CreditGuard::take`] and given back only by dropping the guard.
///
/// Taking is one compare-and-swap, never a check and a separate decrement:
/// on the instant wire an injecting thread and a thread driving the wire may
/// take one receiver's credits at the same time, and a check-then-decrement
/// would let both spend the last one.
struct RxCredits(AtomicI64);

impl RxCredits {
    fn new(n: usize) -> Self {
        RxCredits(AtomicI64::new(n as i64))
    }

    /// Credits left (a snapshot).
    fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Take one credit if any is left; returns whether it did.
    fn take(&self) -> bool {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            if cur <= 0 {
                return false;
            }
            match self
                .0
                .compare_exchange_weak(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
    }

    fn give(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// Returns one receive-buffer credit to the owning endpoint when dropped.
pub(crate) struct CreditGuard {
    ep: Arc<EndpointShared>,
}

impl CreditGuard {
    /// Take one of `ep`'s receive credits, if it has any left.
    pub(crate) fn take(ep: &Arc<EndpointShared>) -> Option<CreditGuard> {
        ep.rx_credits
            .take()
            .then(|| CreditGuard { ep: Arc::clone(ep) })
    }
}

impl Drop for CreditGuard {
    fn drop(&mut self) {
        self.ep.rx_credits.give();
    }
}

/// An owned receive buffer delivered by the fabric.
///
/// Holding a `PacketBuf` pins one of the destination endpoint's pre-posted
/// receive buffers; dropping it (or consuming it with
/// [`PacketBuf::into_vec`]) makes the buffer available for new arrivals.
/// A runtime that hoards `PacketBuf`s will throttle its senders — which is
/// precisely the flow-control behaviour the LCI packet pool relies on.
pub struct PacketBuf {
    data: Vec<u8>,
    _credit: Option<CreditGuard>,
}

impl PacketBuf {
    pub(crate) fn new(data: Vec<u8>, credit: CreditGuard) -> Self {
        PacketBuf {
            data,
            _credit: Some(credit),
        }
    }

    /// Construct a loose buffer not backed by a credit (for tests).
    pub fn detached(data: Vec<u8>) -> Self {
        PacketBuf {
            data,
            _credit: None,
        }
    }

    /// Consume the packet, returning its payload and releasing the credit.
    pub fn into_vec(self) -> Vec<u8> {
        let PacketBuf { data, _credit } = self;
        data
    }
}

impl Deref for PacketBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PacketBuf({} bytes)", self.data.len())
    }
}

pub(crate) struct EndpointShared {
    pub(crate) host: HostId,
    /// The completion queue. Only delivery pushes ([`EndpointShared::post`]):
    /// a thread driving the wire, or on the instant wire the injecting
    /// thread; whoever progresses the host pops, one event or the whole queue
    /// at a time.
    cq: Mutex<VecDeque<Event>>,
    pub(crate) inflight: AtomicUsize,
    rx_credits: RxCredits,
    pub(crate) mrs: Mutex<HashMap<u64, Arc<MrInner>>>,
    pub(crate) next_mr: AtomicU64,
    /// Where [`crate::Rendezvous`] ids come from: never reset, starts above 1.
    pub(crate) next_id: AtomicU64,
    pub(crate) failed: AtomicBool,
    /// This host's counter table: the one store for everything counted on
    /// behalf of the host, by the wire and by every layer above that holds
    /// the [`Endpoint`].
    pub(crate) counters: Arc<Registry>,
}

impl EndpointShared {
    pub(crate) fn new(host: HostId, rx_buffers: usize) -> Self {
        EndpointShared {
            host,
            cq: Mutex::new(VecDeque::new()),
            inflight: AtomicUsize::new(0),
            rx_credits: RxCredits::new(rx_buffers),
            mrs: Mutex::new(HashMap::new()),
            next_mr: AtomicU64::new(1),
            next_id: AtomicU64::new(2),
            failed: AtomicBool::new(false),
            counters: Registry::for_host(),
        }
    }

    /// Append a completion to this host's queue.
    pub(crate) fn post(&self, ev: Event) {
        self.cq.lock().push_back(ev);
    }

    /// Move every queued completion to the back of `buf` under one lock —
    /// by swapping the two queues when `buf` is empty, so that neither
    /// allocates — and return how many there were.
    fn take_all(&self, buf: &mut VecDeque<Event>) -> usize {
        let mut cq = self.cq.lock();
        let n = cq.len();
        if buf.is_empty() {
            std::mem::swap(&mut *cq, buf);
        } else {
            buf.append(&mut cq);
        }
        n
    }
}

/// One simulated host's NIC interface. Cheap to clone; all clones share the
/// same completion queue and resources, so any thread on the host may inject
/// or poll (as with a real NIC's thread-safe verbs context).
#[derive(Clone)]
pub struct Endpoint {
    pub(crate) shared: Arc<EndpointShared>,
    pub(crate) fabric: Arc<FabricShared>,
}

impl Endpoint {
    /// This endpoint's rank.
    pub fn host(&self) -> HostId {
        self.shared.host
    }

    /// Number of hosts in the fabric.
    pub fn num_hosts(&self) -> usize {
        self.fabric.endpoints.len()
    }

    /// Has this endpoint been failed by the fabric?
    pub fn is_failed(&self) -> bool {
        self.shared.failed.load(Ordering::Acquire)
    }

    /// The configuration of the fabric this endpoint belongs to.
    pub fn config(&self) -> &crate::FabricConfig {
        &self.fabric.config
    }

    /// Fault injection: fail this endpoint immediately, as if its NIC died.
    /// Subsequent injections return [`SendError::Closed`]; peers' traffic to
    /// this host piles up in its receive buffers (and eventually triggers
    /// receiver-not-ready handling at the senders).
    pub fn inject_failure(&self) {
        self.shared.failed.store(true, Ordering::Release);
    }

    fn admit(&self, dst: HostId) -> Result<(), SendError> {
        if self.fabric.closed.load(Ordering::Acquire) || self.is_failed() {
            return Err(SendError::Closed);
        }
        if (dst as usize) >= self.fabric.endpoints.len() {
            return Err(SendError::BadRank);
        }
        // Slots come back when the wire delivers, and a wall-clock wire runs
        // only when driven: a full queue drives it once before it is
        // believed, so an injector that never polls still drains.
        if self.take_slot().is_ok() {
            return Ok(());
        }
        self.fabric.drive();
        let Err(full_at) = self.take_slot() else {
            return Ok(());
        };
        self.shared.counters.incr(Counter::FabricBackpressure);
        self.fabric.record(EventKind::Backpressure, dst as u32, 0);
        if full_at < self.fabric.config.injection_depth {
            self.shared
                .counters
                .incr(Counter::FabricFaultBrownoutRejects);
        }
        Err(SendError::Backpressure)
    }

    /// Claim one injection slot, or report the depth the queue is full at.
    fn take_slot(&self) -> Result<(), usize> {
        // A brownout fault phase shrinks the effective injection depth
        // below the configured one for its duration.
        let configured = self.fabric.config.injection_depth;
        let depth = configured.min(self.fabric.brownout_depth.load(Ordering::Relaxed));
        let mut cur = self.shared.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= depth {
                return Err(depth);
            }
            match self.shared.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(c) => cur = c,
            }
        }
    }

    /// Inject an eager two-sided message (the `lc_send` substrate).
    ///
    /// Non-blocking: the payload is copied out at injection time (as an eager
    /// protocol does) and `ctx` comes back in one [`Event::SendDone`] once
    /// the wire is done with the message — delivered, or eaten by a fault.
    /// `ctx` 0 makes the send *unsignaled*, like an InfiniBand send posted
    /// without a completion request: it posts no `SendDone` in any outcome,
    /// and its injection slot comes back all the same. An RNR-exhausted send
    /// still posts its [`Event::Error`]. Fails with
    /// [`SendError::Backpressure`] when the injection queue is full.
    ///
    /// On the instant wire (a wall-clock fabric with no latency and no fault
    /// plan, e.g. [`crate::FabricConfig::test`]) the message is delivered
    /// before this returns — the receiver's credit taken, its `Recv` queued,
    /// a signaled send's `SendDone` posted — unless the receiver has no credit left; that
    /// send waits on the wire for a poll, as on any other wall-clock wire.
    pub fn try_send(
        &self,
        dst: HostId,
        header: u64,
        data: &[u8],
        ctx: u64,
    ) -> Result<(), SendError> {
        if data.len() > self.fabric.config.max_payload {
            return Err(SendError::TooLarge);
        }
        self.admit(dst)?;
        let op = WireOp::Send(SendOp {
            src: self.shared.host,
            dst,
            header,
            data: data.to_vec(),
            ctx,
            retries: 0,
            ghost: false,
        });
        // Counted and logged before the wire has it, which on the instant
        // wire may deliver it at once: the ring reads send, then receive,
        // both at the one stamp.
        let bytes = data.len() as u64;
        self.shared.counters.incr(Counter::FabricSends);
        self.shared.counters.add(Counter::FabricSendBytes, bytes);
        let t = self.fabric.stamp();
        lci_trace::record_at(t, EventKind::Send, dst as u32, bytes);
        self.fabric.inject(op, t);
        Ok(())
    }

    /// Inject an RDMA write into a peer's registered region (the `lc_put`
    /// substrate).
    ///
    /// `ctx` comes back in an [`Event::PutDone`] on this endpoint; if `imm`
    /// is `Some`, the peer additionally observes an [`Event::PutArrived`]
    /// carrying the immediate value — the mechanism LCI's rendezvous protocol
    /// uses to complete the receiver's request.
    ///
    /// On the instant wire the write lands, and its completions are queued,
    /// before this returns.
    pub fn try_put(
        &self,
        dst: HostId,
        key: MrKey,
        offset: usize,
        data: &[u8],
        ctx: u64,
        imm: Option<u64>,
    ) -> Result<(), SendError> {
        self.admit(dst)?;
        let op = WireOp::Put(PutOp {
            src: self.shared.host,
            dst,
            key,
            offset,
            data: data.to_vec(),
            ctx,
            imm,
            epoch: self.fabric_epoch(),
        });
        let bytes = data.len() as u64;
        self.shared.counters.incr(Counter::FabricPuts);
        self.shared.counters.add(Counter::FabricPutBytes, bytes);
        let t = self.fabric.stamp();
        lci_trace::record_at(t, EventKind::Put, dst as u32, bytes);
        self.fabric.inject(op, t);
        Ok(())
    }

    /// Pop one completion event, if any (the `lc_progress` substrate).
    ///
    /// On a wall-clock fabric this is also what moves the wire: a poll that
    /// finds the queue empty executes every delivery that is due (for all
    /// hosts, unless another thread is already doing so) and looks again.
    /// On the instant wire there is rarely anything left to move — injection
    /// delivered it — and a poll that finds the wire empty does not look
    /// twice. A manual fabric moves only under [`crate::Fabric::step`].
    pub fn poll(&self) -> Option<Event> {
        let ev = self.shared.cq.lock().pop_front();
        if ev.is_some() || !self.fabric.drive() {
            return ev;
        }
        self.shared.cq.lock().pop_front()
    }

    /// Take every queued completion at once, appending them to `buf` in the
    /// order [`Endpoint::poll`] would have returned them, and return how many
    /// there were. The queue is taken under one lock — swapped with `buf`
    /// when `buf` is empty, so a caller that keeps its buffer allocates
    /// nothing in steady state. On a wall-clock fabric an empty queue drives
    /// the wire and is looked at again, exactly as by [`Endpoint::poll`].
    pub fn drain_into(&self, buf: &mut VecDeque<Event>) -> usize {
        let n = self.shared.take_all(buf);
        if n > 0 || !self.fabric.drive() {
            return n;
        }
        self.shared.take_all(buf)
    }

    /// Register a zeroed memory region of `len` bytes, making it a valid
    /// target for peers' puts.
    pub fn register_mr(&self, len: usize) -> MemRegion {
        let key = MrKey(self.shared.next_mr.fetch_add(1, Ordering::Relaxed));
        let inner = Arc::new(MrInner {
            data: Mutex::new(vec![0u8; len].into_boxed_slice()),
        });
        self.shared.mrs.lock().insert(key.0, Arc::clone(&inner));
        MemRegion { key, inner }
    }

    /// Remove a region from the registration table. Puts that arrive
    /// afterwards fail with a [`FatalKind::BadMr`] error at the initiator.
    pub fn deregister_mr(&self, key: MrKey) {
        self.shared.mrs.lock().remove(&key.0);
    }

    /// Number of currently registered regions (diagnostics).
    pub fn registered_mrs(&self) -> usize {
        self.shared.mrs.lock().len()
    }

    /// Snapshot of this endpoint's traffic counters. On a wall-clock fabric
    /// the wire is brought up to date first, as by [`Endpoint::poll`], so
    /// the snapshot counts every delivery due by now — a caller may wait on
    /// a count without consuming events.
    pub fn stats(&self) -> StatsSnapshot {
        self.fabric.drive();
        StatsSnapshot::from(self.counters())
    }

    /// This host's counter table. Everything that holds the endpoint — the
    /// wire, the reliable session, the runtimes and communication layers
    /// above — counts through it and nowhere else; reads of
    /// [`lci_trace::global`] include it.
    pub fn counters(&self) -> &Registry {
        &self.shared.counters
    }

    /// Log an event to the calling thread's ring, stamped as the fabric
    /// stamps its own ([`lci_trace::TraceEvent::t_ns`]): for the runtimes
    /// above, whose wire-side events (`PoolExhausted`, `EnqRetry`) then sit
    /// on the same clock as the fabric's `Send` and `Recv`.
    pub fn record(&self, kind: EventKind, a: u32, b: u64) {
        self.fabric.record(kind, a, b);
    }

    /// Current number of in-flight injected operations.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Currently available receive-buffer credits.
    pub fn rx_credits(&self) -> i64 {
        self.shared.rx_credits.get()
    }

    /// The fabric's current incarnation epoch (see
    /// [`crate::Fabric::respawn`]). Stamped into every frame and put at
    /// injection; transports compare it at admission to discard stragglers
    /// from dead incarnations.
    pub fn fabric_epoch(&self) -> u32 {
        self.fabric.recovery_epoch.load(Ordering::Acquire)
    }

    /// Current simulated time in nanoseconds: wall-clock since fabric
    /// construction in wall-clock mode, the virtual clock in manual mode.
    /// This is the clock every [`crate::reliable::ReliableSession`] timeout
    /// is judged against, so timers replay bit-for-bit in manual mode.
    pub fn now_ns(&self) -> u64 {
        if self.fabric.manual {
            self.fabric.virtual_now.load(Ordering::Relaxed)
        } else {
            self.fabric.epoch.elapsed().as_nanos() as u64
        }
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("host", &self.shared.host)
            .field("inflight", &self.inflight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_buf_detached_derefs() {
        let p = PacketBuf::detached(vec![1, 2, 3]);
        assert_eq!(&*p, &[1, 2, 3]);
        assert_eq!(p.into_vec(), vec![1, 2, 3]);
    }
}
