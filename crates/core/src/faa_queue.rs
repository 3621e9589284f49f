//! A bounded multi-producer multi-consumer queue based on fetch-and-add.
//!
//! This is the concurrent queue `Q` of the paper's Algorithms 2 and 3: the
//! progress server enqueues incoming packets, and any number of compute
//! threads dequeue them via `RECV-DEQ`. The paper cites a fetch-and-add based
//! MPMC queue; we implement a bounded ring in that style — producers claim a
//! slot with a single `fetch_add` on the tail and spin briefly for the slot
//! to drain in the (rare, capacity-bounded) case it is still occupied, while
//! consumers use a sequence-checked compare-exchange so that `try_pop` on an
//! empty queue is non-destructive.
//!
//! The ring is built a segment at a time: its slots live in segments of
//! `SEGMENT` (256) slots, and the producer that first claims a ticket in a
//! segment builds it, stamped as if the whole ring had been built up front.
//! A consumer that finds its slot's segment unbuilt reads the slot as empty,
//! which it is: no producer has reached it yet. A queue sized for a fabric's
//! worst case (65 536 receive credits on a test fabric) so costs the
//! segments its traffic reaches, not 3.7 MB at construction.
//!
//! # Capacity invariant
//!
//! `push` never fails; it waits for its claimed slot to free. The caller must
//! therefore bound the number of in-flight items by the queue's capacity.
//! LCI guarantees this structurally: every first-packet `lci::Device` queues
//! holds the fabric receive credit it arrived in (an RTS whose answer is
//! deferred waits on a side list, not here), so at most `rx_buffers` items
//! are ever in flight, and the device sizes the ring to at least that.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Slots per segment of the ring (a power of two): a segment of
/// `lci::Device`'s 56-byte first-packet slots is 14 KB.
const SEGMENT: usize = 256;

/// A value aligned, and so padded, to 128 bytes: two of them never share a
/// cache line, nor the adjacent line x86-64 prefetches with it.
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

struct Slot<T> {
    /// Sequence stamp: `index` when the slot is writable by the producer who
    /// claimed ticket `index`, `index + 1` once written (readable by the
    /// consumer with ticket `index`), and `index + capacity` after reading.
    /// All stamp arithmetic wraps: tickets are free-running counters and the
    /// queue must survive them crossing `usize::MAX` (a long-lived device at
    /// high message rates will get there on 32-bit targets).
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A run of consecutive slots of the ring.
type Segment<T> = Box<[Slot<T>]>;

/// Bounded MPMC queue; see module docs.
///
/// ```
/// use lci::MpmcQueue;
/// let q = MpmcQueue::new(8);
/// q.push(1);
/// q.push(2);
/// assert_eq!(q.try_pop(), Some(1));
/// assert_eq!(q.try_pop(), Some(2));
/// assert_eq!(q.try_pop(), None);
/// ```
pub struct MpmcQueue<T> {
    /// The ring, `capacity / SEGMENT` segments (one, shorter, when the
    /// capacity is smaller), each built on first use.
    segments: Box<[OnceLock<Segment<T>>]>,
    mask: usize,
    /// The ticket the counters started at: slot `s` is first writable by the
    /// ticket of the first lap that lands on it.
    start: usize,
    tail: CachePadded<AtomicUsize>,
    head: CachePadded<AtomicUsize>,
}

// SAFETY: the queue moves each `T` from the pushing thread to the popping
// one, hence `T: Send`; no `&T` is ever shared. A slot's value is written
// only by the producer and read only by the consumer its sequence stamp
// admits (see `push`/`try_pop`). The other fields are atomics, `OnceLock`s
// (a segment is published once, by the one initialiser that runs) and
// values fixed at construction.
unsafe impl<T: Send> Send for MpmcQueue<T> {}
unsafe impl<T: Send> Sync for MpmcQueue<T> {}

impl<T> MpmcQueue<T> {
    /// Create a queue with capacity `cap` rounded up to a power of two.
    pub fn new(cap: usize) -> Self {
        Self::with_initial_ticket(cap, 0)
    }

    /// The slot of `ticket`, its segment built if this is the first ticket
    /// to reach it.
    fn slot(&self, ticket: usize) -> &Slot<T> {
        let i = ticket & self.mask;
        let segment = self.segments[i / SEGMENT].get_or_init(|| self.build(i / SEGMENT));
        &segment[i % SEGMENT]
    }

    /// The slot of `ticket` if its segment is built.
    fn built_slot(&self, ticket: usize) -> Option<&Slot<T>> {
        let i = ticket & self.mask;
        Some(&self.segments[i / SEGMENT].get()?[i % SEGMENT])
    }

    /// Segment `n`, stamped as construction would have stamped it: slot `s`
    /// is writable by the first-lap ticket `start + ((s - start) & mask)`.
    fn build(&self, n: usize) -> Segment<T> {
        let first = n * SEGMENT;
        (first..first + self.capacity().min(SEGMENT))
            .map(|s| Slot {
                seq: AtomicUsize::new(
                    self.start
                        .wrapping_add(s.wrapping_sub(self.start) & self.mask),
                ),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect()
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Approximate number of queued items.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        // Wrapping distance: correct across ticket wraparound; a transiently
        // negative distance (racing loads) reads as empty.
        let d = tail.wrapping_sub(head) as isize;
        if d > 0 {
            d as usize
        } else {
            0
        }
    }

    /// Whether the queue appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue an item. A single fetch-and-add claims the ticket; the push
    /// spins only if the slot from `capacity` items ago is still being read
    /// (bounded by the capacity invariant above).
    pub fn push(&self, value: T) {
        let ticket = self.tail.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(ticket);
        // Wait until the slot is writable for this ticket.
        while slot.seq.load(Ordering::Acquire) != ticket {
            std::hint::spin_loop();
        }
        // SAFETY: the sequence stamp hands exclusive write access for ticket
        // `ticket` to exactly one producer (us); no reader observes the slot
        // until we bump seq below.
        unsafe {
            (*slot.val.get()).write(value);
        }
        slot.seq.store(ticket.wrapping_add(1), Ordering::Release);
    }

    /// Dequeue an item if one is ready. Non-destructive on empty.
    pub fn try_pop(&self) -> Option<T> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // An unbuilt segment holds nothing: no producer has reached it.
            let slot = self.built_slot(head)?;
            let seq = slot.seq.load(Ordering::Acquire);
            // Signed wrapping distance from our ticket to the stamp — exact
            // even when the counters straddle usize::MAX.
            let dist = seq.wrapping_sub(head.wrapping_add(1)) as isize;
            if dist == 0 {
                // Slot is full for this ticket: try to claim it.
                match self.head.compare_exchange_weak(
                    head,
                    head.wrapping_add(1),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: we won the ticket; the producer finished
                        // writing (seq == head+1 observed with Acquire).
                        let value = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq
                            .store(head.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(h) => head = h,
                }
            } else if dist < 0 {
                // Slot not yet written for this ticket: queue is empty (or a
                // producer claimed a ticket but has not finished writing).
                return None;
            } else {
                // We are behind; reload the head.
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Test-only constructor that starts the ticket counters at `start`,
    /// letting wraparound tests begin just below `usize::MAX` instead of
    /// pushing 2^64 items. Public so property tests outside the crate can
    /// exercise wraparound; not part of the supported API.
    #[doc(hidden)]
    pub fn with_initial_ticket(cap: usize, start: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        MpmcQueue {
            segments: (0..cap.div_ceil(SEGMENT))
                .map(|_| OnceLock::new())
                .collect(),
            mask: cap - 1,
            start,
            tail: CachePadded(AtomicUsize::new(start)),
            head: CachePadded(AtomicUsize::new(start)),
        }
    }

    /// How many of the ring's segments have been built. Public so tests
    /// outside the crate can check what a queue has allocated; not part of
    /// the supported API.
    #[doc(hidden)]
    pub fn segments_built(&self) -> usize {
        self.segments.iter().filter(|s| s.get().is_some()).count()
    }
}

impl<T> Drop for MpmcQueue<T> {
    fn drop(&mut self) {
        // Drain remaining items so their destructors run.
        while self.try_pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for MpmcQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpmcQueue")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let q = MpmcQueue::new(8);
        assert!(q.is_empty());
        assert!(q.try_pop().is_none());
        for i in 0..8 {
            q.push(i);
        }
        assert_eq!(q.len(), 8);
        for i in 0..8 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn capacity_rounds_up() {
        let q: MpmcQueue<u8> = MpmcQueue::new(5);
        assert_eq!(q.capacity(), 8);
        let q: MpmcQueue<u8> = MpmcQueue::new(1);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn wraparound_many_times() {
        let q = MpmcQueue::new(4);
        for round in 0..100 {
            for i in 0..3 {
                q.push(round * 10 + i);
            }
            for i in 0..3 {
                assert_eq!(q.try_pop(), Some(round * 10 + i));
            }
        }
    }

    #[test]
    fn ticket_counters_survive_usize_wraparound() {
        // Start the free-running tickets just below usize::MAX so the ring
        // crosses the wrap within a few pushes.
        let start = usize::MAX - 2;
        let q = MpmcQueue::with_initial_ticket(4, start);
        assert!(q.is_empty());
        assert!(q.try_pop().is_none());
        // Push/pop straddling the wrap, FIFO preserved throughout.
        for i in 0..16u64 {
            q.push(i);
            assert_eq!(q.len(), 1);
            assert_eq!(q.try_pop(), Some(i));
            assert!(q.try_pop().is_none(), "pop past empty across wrap");
        }
        // Fill the whole ring while the counters straddle the boundary.
        let q = MpmcQueue::with_initial_ticket(4, start);
        for i in 0..4u64 {
            q.push(i);
        }
        assert_eq!(q.len(), 4);
        for i in 0..4u64 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn wraparound_concurrent_no_loss() {
        // Producers and consumers racing while tickets cross usize::MAX.
        let q = Arc::new(MpmcQueue::<u64>::with_initial_ticket(8, usize::MAX - 3));
        let qp = Arc::clone(&q);
        const N: u64 = 10_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                while qp.len() >= 6 {
                    std::thread::yield_now();
                }
                qp.push(i);
            }
        });
        let mut expect = 0u64;
        while expect < N {
            if let Some(v) = q.try_pop() {
                assert_eq!(v, expect, "order broke at the ticket wrap");
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn drop_runs_destructors() {
        let flag = Arc::new(());
        let q = MpmcQueue::new(4);
        q.push(Arc::clone(&flag));
        q.push(Arc::clone(&flag));
        assert_eq!(Arc::strong_count(&flag), 3);
        drop(q);
        assert_eq!(Arc::strong_count(&flag), 1);
    }

    #[test]
    fn mpmc_stress_no_loss_no_dup() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 20_000;
        // Capacity must bound in-flight items; producers throttle by yielding
        // when the queue looks full.
        let q = Arc::new(MpmcQueue::new(1024));
        let consumed = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let done = Arc::new(AtomicUsize::new(0));

        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    while q.len() >= q.capacity() - PRODUCERS {
                        std::thread::yield_now();
                    }
                    q.push((p * PER_PRODUCER + i) as u64);
                }
            }));
        }
        for _ in 0..CONSUMERS {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                loop {
                    match q.try_pop() {
                        Some(v) => local.push(v),
                        None => {
                            if done.load(Ordering::Acquire) == PRODUCERS && q.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                consumed.lock().extend(local);
            }));
        }
        // Join producers first, then signal consumers.
        let mut iter = handles.into_iter();
        for _ in 0..PRODUCERS {
            iter.next().unwrap().join().unwrap();
            done.fetch_add(1, Ordering::Release);
        }
        for h in iter {
            h.join().unwrap();
        }

        let got = consumed.lock();
        assert_eq!(got.len(), PRODUCERS * PER_PRODUCER);
        let set: HashSet<u64> = got.iter().copied().collect();
        assert_eq!(set.len(), PRODUCERS * PER_PRODUCER, "duplicates detected");
    }

    #[test]
    fn fifo_across_segment_boundaries() {
        let q = MpmcQueue::new(4 * SEGMENT);
        // Fill past two boundaries, drain half, then run three laps.
        for i in 0..3 * SEGMENT as u64 {
            q.push(i);
        }
        for i in 0..3 * SEGMENT as u64 / 2 {
            assert_eq!(q.try_pop(), Some(i));
        }
        let mut next_out = 3 * SEGMENT as u64 / 2;
        for i in 3 * SEGMENT as u64..15 * SEGMENT as u64 {
            q.push(i);
            assert_eq!(q.try_pop(), Some(next_out), "order broke at ticket {i}");
            next_out += 1;
        }
        while let Some(v) = q.try_pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, 15 * SEGMENT as u64);
    }

    #[test]
    fn wraparound_across_a_segment_boundary() {
        // The first ticket sits 300 below usize::MAX, in the third of four
        // segments: the first lap crosses into the fourth, then the counters
        // wrap as the ring crosses back into the first.
        let cap = 4 * SEGMENT;
        let start = usize::MAX - 300;
        let q = MpmcQueue::with_initial_ticket(cap, start);
        assert_eq!((start & (cap - 1)) / SEGMENT, 2);
        for i in 0..cap as u64 {
            q.push(i);
        }
        assert_eq!(q.len(), cap);
        assert_eq!(q.segments_built(), 4);
        for i in 0..cap as u64 {
            assert_eq!(q.try_pop(), Some(i));
        }
        // Keep a partial ring in flight across several more laps.
        for i in 0..5 * cap as u64 {
            q.push(i);
            if i >= 100 {
                assert_eq!(q.try_pop(), Some(i - 100));
            }
        }
        assert_eq!(q.len(), 100);
    }

    #[test]
    fn segments_are_built_when_tickets_reach_them() {
        let q = MpmcQueue::<u64>::new(16 * SEGMENT);
        assert_eq!(q.segments_built(), 0, "a fresh queue builds nothing");
        assert!(q.try_pop().is_none());
        assert_eq!(
            q.segments_built(),
            0,
            "a pop on an empty ring builds nothing"
        );
        q.push(7);
        assert_eq!(q.segments_built(), 1);
        assert_eq!(q.try_pop(), Some(7));
        for i in 1..SEGMENT as u64 {
            q.push(i);
            q.try_pop();
        }
        assert_eq!(q.segments_built(), 1, "one lap of one segment");
        q.push(0);
        assert_eq!(
            q.segments_built(),
            2,
            "the first ticket of the next segment builds it"
        );
        // A small ring is one segment of its own size.
        let small = MpmcQueue::<u8>::new(4);
        small.push(1);
        assert_eq!((small.capacity(), small.segments_built()), (4, 1));
    }

    #[test]
    fn mpmc_stress_across_segments() {
        const PRODUCERS: usize = 2;
        const PER_PRODUCER: u64 = 20_000;
        let q = Arc::new(MpmcQueue::new(16 * SEGMENT));
        assert!(q.capacity() >= 4096);
        let popped = Arc::new(AtomicUsize::new(0));
        let total = PRODUCERS * PER_PRODUCER as usize;
        let mut handles = Vec::new();
        for p in 0..PRODUCERS as u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    while q.len() >= q.capacity() - PRODUCERS {
                        std::thread::yield_now();
                    }
                    q.push(p * PER_PRODUCER + i);
                }
                Vec::new()
            }));
        }
        for _ in 0..2 {
            let (q, popped) = (Arc::clone(&q), Arc::clone(&popped));
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while popped.load(Ordering::Relaxed) < total {
                    match q.try_pop() {
                        Some(v) => {
                            got.push(v);
                            popped.fetch_add(1, Ordering::Relaxed);
                        }
                        None => std::thread::yield_now(),
                    }
                }
                got
            }));
        }
        let mut got: Vec<u64> = Vec::new();
        for h in handles {
            let part = h.join().unwrap();
            // Each consumer sees each producer's items in push order.
            for p in 0..PRODUCERS as u64 {
                let mine = part.iter().filter(|&&v| v / PER_PRODUCER == p);
                assert!(mine.clone().zip(mine.skip(1)).all(|(a, b)| a < b));
            }
            got.extend(part);
        }
        got.sort_unstable();
        assert!(
            got.iter().copied().eq(0..total as u64),
            "lost or duplicated"
        );
        assert_eq!(q.segments_built(), 16);
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // FIFO per producer: with one producer and one consumer running
        // concurrently, order must hold.
        let q = Arc::new(MpmcQueue::new(64));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for i in 0..50_000u64 {
                while qp.len() >= 60 {
                    std::thread::yield_now();
                }
                qp.push(i);
            }
        });
        let mut expect = 0u64;
        while expect < 50_000 {
            if let Some(v) = q.try_pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
