//! The first-packet queue.
//!
//! This is the queue `Q` of the paper's Algorithms 2 and 3: progress
//! enqueues the first packet of each arriving message, and `RECV-DEQ`
//! dequeues it. The paper makes `Q` a fetch-and-add ring because a dedicated
//! progress server feeds many compute threads. Here a host is one thread,
//! which both drives its device's progress and calls `recv_deq`, so `Q` is a
//! deque behind one lock. It is still a correct MPMC queue, only not a
//! lock-free one.
//!
//! # Capacity invariant
//!
//! `push` never fails and never waits, so the caller must bound the number of
//! queued items; `cap` is that bound, checked in debug builds. LCI keeps it
//! structurally: every first-packet `lci::Device` queues holds the fabric
//! receive credit it arrived in, an `RTS` whose answer is deferred included,
//! so at most `rx_buffers` items are ever queued, and the device passes at
//! least that. No slot is allocated for the bound: the deque grows to what
//! the traffic queues at once and keeps that capacity.

use parking_lot::Mutex;
use std::collections::VecDeque;

/// A FIFO queue of at most `cap` items, safe to share between threads; see
/// the module docs.
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
    items: Mutex<VecDeque<T>>,
    cap: usize,
}

impl<T> MpmcQueue<T> {
    /// Create an empty queue that its caller keeps to at most `cap` items.
    pub fn new(cap: usize) -> Self {
        MpmcQueue {
            items: Mutex::new(VecDeque::new()),
            cap,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue an item at the tail.
    pub fn push(&self, value: T) {
        let mut items = self.items.lock();
        debug_assert!(items.len() < self.cap, "queued past the bound");
        items.push_back(value);
    }

    /// Put an item back at the head, ahead of everything queued: the next
    /// `try_pop` returns it.
    pub fn push_front(&self, value: T) {
        let mut items = self.items.lock();
        debug_assert!(items.len() < self.cap, "queued past the bound");
        items.push_front(value);
    }

    /// Dequeue the head item, if any.
    pub fn try_pop(&self) -> Option<T> {
        self.items.lock().pop_front()
    }
}

impl<T> std::fmt::Debug for MpmcQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpmcQueue")
            .field("cap", &self.cap)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
    fn push_front_is_popped_next() {
        let q = MpmcQueue::new(4);
        q.push(1);
        q.push(2);
        assert_eq!(q.try_pop(), Some(1));
        q.push_front(1);
        q.push(3);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert!(q.try_pop().is_none());
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
        const CAP: usize = 1024;
        // The caller bounds the queued items: producers throttle by yielding
        // when the queue looks full.
        let q = Arc::new(MpmcQueue::new(CAP));
        let consumed = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let done = Arc::new(AtomicUsize::new(0));

        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    while q.len() >= CAP - PRODUCERS {
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
        // concurrently, order must hold. The consumer yields on an empty
        // pop so it does not hold a core its producer needs.
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
