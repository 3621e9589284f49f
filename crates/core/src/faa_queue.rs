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
//! # Capacity invariant
//!
//! `push` never fails; it waits for its claimed slot to free. The caller must
//! therefore bound the number of in-flight items by the queue's capacity.
//! LCI guarantees this structurally: every enqueued packet holds either a
//! pool packet or a fabric receive credit, and the queue is sized to the sum
//! of both budgets.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A value aligned, and so padded, to 128 bytes: two of them never share a
/// cache line, nor the adjacent line x86-64 prefetches with it.
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

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
    slots: Box<[Slot<T>]>,
    mask: usize,
    tail: CachePadded<AtomicUsize>,
    head: CachePadded<AtomicUsize>,
}

unsafe impl<T: Send> Send for MpmcQueue<T> {}
unsafe impl<T: Send> Sync for MpmcQueue<T> {}

impl<T> MpmcQueue<T> {
    /// Create a queue with capacity `cap` rounded up to a power of two.
    pub fn new(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MpmcQueue {
            slots,
            mask: cap - 1,
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
        }
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
        let slot = &self.slots[ticket & self.mask];
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
            let slot = &self.slots[head & self.mask];
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
        let q = Self::new(cap);
        // Stamp by *ticket*, not slot index: ticket `start + k` lives in slot
        // `(start + k) & mask` and is writable when that slot's seq equals it.
        for k in 0..q.capacity() {
            let ticket = start.wrapping_add(k);
            q.slots[ticket & q.mask]
                .seq
                .store(ticket, Ordering::Relaxed);
        }
        q.tail.store(start, Ordering::Relaxed);
        q.head.store(start, Ordering::Relaxed);
        q
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
                std::hint::spin_loop();
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
            }
        }
        producer.join().unwrap();
    }
}
