//! Per-thread fixed-capacity event rings.
//!
//! [`record`] pushes a [`TraceEvent`] into a `thread_local` ring buffer:
//! no allocation after the ring exists, no locking ever, and overflow
//! drops the *oldest* event while bumping a drop counter — tracing can
//! never stall the hot path it observes.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Default capacity of each per-thread ring (events, not bytes).
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// What happened. The payload meaning of `a`/`b` is per-kind and kept
/// loose on purpose: rings are a debugging aid, counters are the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// Message send initiated (`a` = dst, `b` = bytes).
    Send,
    /// Message received (`a` = src, `b` = bytes).
    Recv,
    /// RDMA put initiated (`a` = dst, `b` = bytes).
    Put,
    /// Receiver-not-ready bounce (`a` = src).
    RnrBounce,
    /// Injection-queue backpressure hit (`a` = dst).
    Backpressure,
    /// Packet pool empty on send initiation.
    PoolExhausted,
    /// Retryable enqueue attempt repeated (`b` = attempt number).
    EnqRetry,
    /// Engine round started (`b` = round).
    RoundBegin,
    /// Engine round finished (`b` = round).
    RoundEnd,
    /// Span opened (`a` = counter id of the phase).
    PhaseBegin,
    /// Span closed (`a` = counter id, `b` = elapsed ns).
    PhaseEnd,
    /// Injected fault fired (`a` = fault discriminant).
    Fault,
    /// Free-form probe for ad-hoc debugging.
    Custom,
}

/// One fixed-size trace record (24 bytes): timestamp, kind, two payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch ([`now_ns`]).
    pub t_ns: u64,
    /// Event discriminator.
    pub kind: EventKind,
    /// Small payload (peer rank, counter id, ...).
    pub a: u32,
    /// Large payload (bytes, round, elapsed ns, ...).
    pub b: u64,
}

/// Fixed-capacity circular event buffer. Drop-oldest on overflow.
pub struct Ring {
    buf: Vec<TraceEvent>,
    head: usize,
    len: usize,
    dropped: u64,
}

impl Ring {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity.max(1)),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events evicted by overflow since creation (or last [`Ring::drain`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append an event; if full, the oldest event is evicted and counted.
    pub fn push(&mut self, ev: TraceEvent) {
        let cap = self.buf.capacity();
        if self.buf.len() < cap {
            self.buf.push(ev);
            self.len += 1;
            return;
        }
        let idx = (self.head + self.len) % cap;
        self.buf[idx] = ev;
        if self.len == cap {
            // Overwrote the oldest slot: advance head, count the drop.
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        } else {
            self.len += 1;
        }
    }

    /// Copy of the held events, oldest first. Does not consume.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let cap = self.buf.capacity().max(1);
        (0..self.len)
            .map(|i| self.buf[(self.head + i) % cap])
            .collect()
    }

    /// Take all held events (oldest first) and reset, including the
    /// drop counter.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let out = self.snapshot();
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
        self.buf.clear();
        out
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::new(DEFAULT_RING_CAPACITY));
}

/// Nanoseconds since the first trace call in this process. Monotonic.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Record an event in the current thread's ring. Safe during thread
/// teardown (silently a no-op once the TLS ring is destroyed).
#[inline]
pub fn record(kind: EventKind, a: u32, b: u64) {
    record_at(now_ns(), kind, a, b);
}

/// [`record`] stamped `t_ns`, a [`now_ns`] reading the caller already holds
/// — so one clock read can both time something and date its event.
#[inline]
pub fn record_at(t_ns: u64, kind: EventKind, a: u32, b: u64) {
    let ev = TraceEvent { t_ns, kind, a, b };
    let _ = RING.try_with(|r| r.borrow_mut().push(ev));
}

/// Run `f` against the current thread's ring (e.g. to drain or inspect it).
/// Returns `None` during thread teardown.
pub fn with_ring<T>(f: impl FnOnce(&mut Ring) -> T) -> Option<T> {
    RING.try_with(|r| f(&mut r.borrow_mut())).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(b: u64) -> TraceEvent {
        TraceEvent { t_ns: b, kind: EventKind::Custom, a: 0, b }
    }

    /// Golden: overflow drops the *oldest* events and counts every drop.
    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);

        // Two more: events 0 and 1 must be evicted, newest retained.
        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        let held: Vec<u64> = r.snapshot().iter().map(|e| e.b).collect();
        assert_eq!(held, vec![2, 3, 4, 5]);

        // Keep going round the ring: still oldest-first, drops accumulate.
        for i in 6..16 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 12);
        let held: Vec<u64> = r.snapshot().iter().map(|e| e.b).collect();
        assert_eq!(held, vec![12, 13, 14, 15]);
    }

    #[test]
    fn drain_returns_fifo_and_resets() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(ev(i));
        }
        let out: Vec<u64> = r.drain().iter().map(|e| e.b).collect();
        assert_eq!(out, vec![2, 3, 4]);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        r.push(ev(9));
        assert_eq!(r.snapshot()[0].b, 9);
    }

    #[test]
    fn capacity_minimum_is_one() {
        let mut r = Ring::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.snapshot()[0].b, 2);
    }

    #[test]
    fn thread_local_record_and_drain() {
        with_ring(|r| {
            r.drain();
        });
        record(EventKind::Send, 1, 64);
        record(EventKind::Recv, 0, 64);
        let events = with_ring(|r| r.drain()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Send);
        assert_eq!(events[0].a, 1);
        assert_eq!(events[1].kind, EventKind::Recv);
        assert!(events[0].t_ns <= events[1].t_ns);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
