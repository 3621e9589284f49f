//! Request handles: communication completion by a single boolean flag.
//!
//! The paper contrasts this with `MPI_TEST`/`MPI_WAIT`: once an LCI
//! operation is initiated, its progress is implicit (driven by the
//! communication server) and the user merely re-reads a status flag — no
//! function call, no network poll on the critical path.
//!
//! A request takes one of two forms, fixed when the device creates it:
//!
//! * **Eager** — born complete (an eager `SEND-ENQ` is done at initiation,
//!   Algorithm 1 line 10; an eager `RECV-DEQ` surfaces a message that has
//!   arrived). The handle owns everything — peer, tag, size and, for a
//!   receive, its [`RecvData`] behind an inline lock so that
//!   [`RecvRequest::take_data`] hands it out once — and no other thread ever
//!   sees it: no heap, no shared flag.
//! * **Rendezvous** — an `Arc<ReqInner>` shared with the device's progress:
//!   parked under its rendezvous id, marked done or failed by progress, failed
//!   by [`Device::rejoin`](crate::Device::rejoin). Only this form has a
//!   status flag to re-read.

use bytes::Bytes;
use lci_fabric::MemRegion;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

const PENDING: u8 = 0;
const DONE: u8 = 1;
const ERROR: u8 = 2;

/// Disjoint-interval accounting for fragment assembly.
///
/// A duplicated or corrupted fragment must not advance completion: counting
/// raw bytes (`filled += body.len()`) would double-count a re-delivered
/// fragment and declare the buffer complete while holes remain. This tracks
/// the exact set of byte ranges written; overlapping inserts are rejected so
/// the caller can drop the packet and bump a counter instead.
#[derive(Debug, Default)]
pub(crate) struct FilledRanges {
    /// Sorted, disjoint, non-adjacent `(start, end)` half-open intervals.
    ranges: Vec<(usize, usize)>,
    total: usize,
}

impl FilledRanges {
    pub(crate) fn new() -> Self {
        FilledRanges::default()
    }

    /// Record `[start, end)` as filled. Returns `false` (and records
    /// nothing) when the interval is empty or overlaps an existing one.
    pub(crate) fn insert(&mut self, start: usize, end: usize) -> bool {
        if start >= end {
            return false;
        }
        let i = self.ranges.partition_point(|&(s, _)| s < start);
        if i > 0 && self.ranges[i - 1].1 > start {
            return false;
        }
        if i < self.ranges.len() && self.ranges[i].0 < end {
            return false;
        }
        self.total += end - start;
        let merge_left = i > 0 && self.ranges[i - 1].1 == start;
        let merge_right = i < self.ranges.len() && self.ranges[i].0 == end;
        match (merge_left, merge_right) {
            (true, true) => {
                self.ranges[i - 1].1 = self.ranges[i].1;
                self.ranges.remove(i);
            }
            (true, false) => self.ranges[i - 1].1 = end,
            (false, true) => self.ranges[i].0 = start,
            (false, false) => self.ranges.insert(i, (start, end)),
        }
        true
    }

    /// Total bytes covered by recorded ranges.
    pub(crate) fn covered(&self) -> usize {
        self.total
    }
}

/// What a rendezvous request holds.
pub(crate) enum ReqState {
    /// Nothing held (consumed).
    Empty,
    /// Rendezvous send: the payload kept alive until the RDMA put completes.
    SendPayload(Bytes),
    /// Rendezvous receive: the registered landing region.
    RecvMr(MemRegion),
    /// Emulated-put receive: fragments assemble here.
    RecvAssembly {
        /// The landing buffer.
        buf: Vec<u8>,
        /// Byte ranges received so far.
        filled: FilledRanges,
    },
    /// Completed receive: data ready for the user.
    RecvReady(RecvData),
}

/// A received payload, claimed with [`RecvRequest::take_data`]. Derefs to
/// the message's bytes.
///
/// An eager message is handed out in the buffer the fabric delivered it in —
/// the bytes sit behind the transport headers, which are skipped, not
/// stripped — so receiving copies nothing; [`RecvData::into_vec`] is for a
/// caller that needs an owned `Vec` of exactly the payload.
pub struct RecvData {
    buf: Vec<u8>,
    /// Where the payload starts in `buf`.
    start: usize,
}

impl RecvData {
    /// The payload is `buf[start..]`.
    pub(crate) fn new(buf: Vec<u8>, start: usize) -> Self {
        assert!(start <= buf.len(), "payload starts inside its buffer");
        RecvData { buf, start }
    }

    /// The payload as an owned vector (moves it to the front of the buffer
    /// when it arrived behind headers).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.buf.drain(..self.start);
        self.buf
    }
}

impl std::ops::Deref for RecvData {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for RecvData {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

impl std::fmt::Debug for RecvData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// The state of a rendezvous request, shared between its handle and the
/// device's progress: parked under its id, marked done or failed there, or
/// failed by [`Device::rejoin`](crate::Device::rejoin).
pub(crate) struct ReqInner {
    status: AtomicU8,
    pub(crate) state: Mutex<ReqState>,
}

impl ReqInner {
    pub(crate) fn new(state: ReqState) -> Arc<Self> {
        Arc::new(ReqInner {
            status: AtomicU8::new(PENDING),
            state: Mutex::new(state),
        })
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

/// Where a request's completion lives.
enum Form<D> {
    /// Born complete: an eager message, done at initiation. The handle owns
    /// it alone — `D` is what is left to hand out — and progress never sees it.
    Eager(D),
    /// A rendezvous, shared with progress until its last completion.
    Rendezvous(Arc<ReqInner>),
}

/// The handle behind both request types: peer, tag and size inline, and the
/// request's [`Form`].
struct Handle<D> {
    /// Peer rank: destination for sends, source for receives.
    peer: u16,
    tag: u32,
    size: usize,
    form: Form<D>,
}

impl<D> Handle<D> {
    fn is_done(&self) -> bool {
        match &self.form {
            Form::Eager(_) => true,
            Form::Rendezvous(req) => req.is_done(),
        }
    }

    fn is_error(&self) -> bool {
        matches!(&self.form, Form::Rendezvous(req) if req.is_error())
    }
}

/// Handle to an initiated send. Completion is observed by re-reading
/// [`SendRequest::is_done`]; there is no completion *call*.
pub struct SendRequest {
    handle: Handle<()>,
}

impl SendRequest {
    /// An eager send: complete at initiation (Algorithm 1, line 10).
    pub(crate) fn eager(dst: u16, tag: u32, size: usize) -> Self {
        SendRequest {
            handle: Handle {
                peer: dst,
                tag,
                size,
                form: Form::Eager(()),
            },
        }
    }

    /// A rendezvous send, complete when progress marks `req` done.
    pub(crate) fn rendezvous(dst: u16, tag: u32, size: usize, req: Arc<ReqInner>) -> Self {
        SendRequest {
            handle: Handle {
                peer: dst,
                tag,
                size,
                form: Form::Rendezvous(req),
            },
        }
    }

    /// Has the message left the sender safely (eager) or has the rendezvous
    /// put completed?
    pub fn is_done(&self) -> bool {
        self.handle.is_done()
    }

    /// Did the operation fail fatally (endpoint failed)?
    pub fn is_error(&self) -> bool {
        self.handle.is_error()
    }

    /// Destination rank.
    pub fn dst(&self) -> u16 {
        self.handle.peer
    }

    /// Message tag.
    pub fn tag(&self) -> u32 {
        self.handle.tag
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.handle.size
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.handle.size == 0
    }
}

impl std::fmt::Debug for SendRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SendRequest")
            .field("dst", &self.dst())
            .field("tag", &self.tag())
            .field("len", &self.len())
            .field("done", &self.is_done())
            .finish()
    }
}

/// Handle to a receive dequeued via `RECV-DEQ`.
///
/// Eager receives come back already complete; rendezvous receives complete
/// when the sender's RDMA put lands. Either way the data is claimed with
/// [`RecvRequest::take_data`].
pub struct RecvRequest {
    /// An eager receive holds its data until [`RecvRequest::take_data`].
    handle: Handle<Mutex<Option<RecvData>>>,
}

impl RecvRequest {
    /// An eager receive: complete, holding the message it arrived with.
    pub(crate) fn eager(src: u16, tag: u32, data: RecvData) -> Self {
        RecvRequest {
            handle: Handle {
                peer: src,
                tag,
                size: data.len(),
                form: Form::Eager(Mutex::new(Some(data))),
            },
        }
    }

    /// A rendezvous receive, complete when its put lands in `req`.
    pub(crate) fn rendezvous(src: u16, tag: u32, size: usize, req: Arc<ReqInner>) -> Self {
        RecvRequest {
            handle: Handle {
                peer: src,
                tag,
                size,
                form: Form::Rendezvous(req),
            },
        }
    }

    /// Is the payload ready to take?
    pub fn is_done(&self) -> bool {
        self.handle.is_done()
    }

    /// Did the operation fail fatally?
    pub fn is_error(&self) -> bool {
        self.handle.is_error()
    }

    /// Source rank.
    pub fn src(&self) -> u16 {
        self.handle.peer
    }

    /// Message tag.
    pub fn tag(&self) -> u32 {
        self.handle.tag
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.handle.size
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.handle.size == 0
    }

    /// Claim the payload. Returns `None` if the request is not yet done or
    /// the data was already taken.
    pub fn take_data(&self) -> Option<RecvData> {
        let req = match &self.handle.form {
            Form::Eager(data) => return data.lock().take(),
            Form::Rendezvous(req) if req.is_done() => req,
            Form::Rendezvous(_) => return None,
        };
        let mut st = req.state.lock();
        match std::mem::replace(&mut *st, ReqState::Empty) {
            ReqState::RecvReady(v) => Some(v),
            other => {
                *st = other;
                None
            }
        }
    }
}

impl std::fmt::Debug for RecvRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvRequest")
            .field("src", &self.src())
            .field("tag", &self.tag())
            .field("len", &self.len())
            .field("done", &self.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_transitions() {
        let r = ReqInner::new(ReqState::Empty);
        assert!(!r.is_done());
        assert!(!r.is_error());
        r.mark_done();
        assert!(r.is_done());
    }

    #[test]
    fn take_data_only_when_done() {
        // As an eager message arrives: two bytes of header, then the payload.
        let data = RecvData::new(vec![9, 9, 1, 2, 3], 2);
        let inner = ReqInner::new(ReqState::RecvReady(data));
        let req = RecvRequest::rendezvous(1, 2, 3, Arc::clone(&inner));
        assert!(req.take_data().is_none(), "pending request yields no data");
        inner.mark_done();
        let data = req.take_data().expect("done request yields its data");
        assert_eq!(data, [1, 2, 3]);
        assert_eq!(data.into_vec(), vec![1, 2, 3]);
        assert!(req.take_data().is_none(), "data can only be taken once");
    }

    #[test]
    fn eager_requests_are_born_complete() {
        let data = RecvData::new(vec![9, 9, 1, 2, 3], 2);
        let req = RecvRequest::eager(4, 5, data);
        assert!(req.is_done() && !req.is_error());
        assert_eq!((req.src(), req.tag(), req.len()), (4, 5, 3));
        assert_eq!(req.take_data().expect("born with its data"), [1, 2, 3]);
        assert!(req.take_data().is_none(), "data can only be taken once");
        let send = SendRequest::eager(6, 7, 0);
        assert!(send.is_done() && !send.is_error() && send.is_empty());
        assert_eq!((send.dst(), send.tag()), (6, 7));
    }

    #[test]
    fn requests_are_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<SendRequest>();
        shared::<RecvRequest>();
    }

    #[test]
    fn filled_ranges_coalesce_and_reject_overlap() {
        let mut f = FilledRanges::new();
        assert!(f.insert(0, 10));
        assert!(f.insert(20, 30));
        assert_eq!(f.covered(), 20);
        // Exact duplicate and partial overlaps are rejected without effect.
        assert!(!f.insert(0, 10));
        assert!(!f.insert(5, 15));
        assert!(!f.insert(15, 25));
        assert!(!f.insert(0, 30));
        assert!(!f.insert(7, 7), "empty interval rejected");
        assert_eq!(f.covered(), 20);
        // Filling the gap merges everything into one interval.
        assert!(f.insert(10, 20));
        assert_eq!(f.covered(), 30);
        assert_eq!(f.ranges, vec![(0, 30)]);
    }

    #[test]
    fn filled_ranges_merge_left_and_right() {
        let mut f = FilledRanges::new();
        assert!(f.insert(10, 20));
        assert!(f.insert(20, 25)); // merge left
        assert!(f.insert(5, 10)); // merge right
        assert_eq!(f.ranges, vec![(5, 25)]);
        assert_eq!(f.covered(), 20);
        assert!(f.insert(30, 40)); // disjoint insert after
        assert_eq!(f.ranges, vec![(5, 25), (30, 40)]);
        assert_eq!(f.covered(), 30);
    }

    #[test]
    fn accessors() {
        let inner = ReqInner::new(ReqState::Empty);
        let s = SendRequest::rendezvous(7, 42, 11, Arc::clone(&inner));
        assert!(!s.is_done());
        inner.mark_error();
        assert!(s.is_error());
        inner.mark_done();
        assert_eq!(s.dst(), 7);
        assert_eq!(s.tag(), 42);
        assert_eq!(s.len(), 11);
        assert!(!s.is_empty());
        assert!(s.is_done());
    }
}
