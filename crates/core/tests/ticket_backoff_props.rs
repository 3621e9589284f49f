//! Property tests for `MpmcQueue`'s ticket arithmetic: the free-running FAA
//! tickets must keep FIFO order and exact lengths across `usize` wraparound,
//! for any start ticket and any push/pop interleaving.

use lci::MpmcQueue;
use proptest::prelude::*;
use std::collections::VecDeque;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For any capacity, any start ticket within a window straddling
    /// `usize::MAX`, and any op interleaving, the queue matches a VecDeque
    /// model exactly — wraparound must be invisible.
    #[test]
    fn ticket_arithmetic_survives_wraparound(
        cap_pow in 0u32..6,
        offset in 0usize..128,
        ops in prop::collection::vec((any::<bool>(), any::<u32>()), 1..400),
    ) {
        let cap = 1usize << cap_pow;
        // Start so that the ticket counters cross usize::MAX mid-sequence.
        let start = usize::MAX - offset;
        let q = MpmcQueue::with_initial_ticket(cap, start);
        let mut model: VecDeque<u32> = VecDeque::new();
        for (push, v) in ops {
            if push && model.len() < cap {
                q.push(v);
                model.push_back(v);
            } else {
                prop_assert_eq!(q.try_pop(), model.pop_front());
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        while let Some(m) = model.pop_front() {
            prop_assert_eq!(q.try_pop(), Some(m));
        }
        prop_assert_eq!(q.try_pop(), None);
    }

    /// The same model on rings of several segments (the ring is built 256
    /// slots at a time): bursts of pushes and pops walk the tickets across
    /// segment boundaries and across `usize::MAX`, from any first segment.
    #[test]
    fn ticket_arithmetic_survives_wraparound_across_segments(
        cap_pow in 9u32..13,
        offset in 0usize..4096,
        bursts in prop::collection::vec((any::<bool>(), 1usize..700), 1..24),
    ) {
        let cap = 1usize << cap_pow;
        let q = MpmcQueue::with_initial_ticket(cap, usize::MAX - offset);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for (push, n) in bursts {
            for _ in 0..n {
                if push && model.len() < cap {
                    q.push(next);
                    model.push_back(next);
                    next += 1;
                } else {
                    prop_assert_eq!(q.try_pop(), model.pop_front());
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some(m) = model.pop_front() {
            prop_assert_eq!(q.try_pop(), Some(m));
        }
        prop_assert_eq!(q.try_pop(), None);
    }

    /// Concurrent producer/consumer racing across the wrap boundary loses
    /// nothing and preserves FIFO (single producer, single consumer).
    #[test]
    fn wraparound_spsc_is_lossless(
        offset in 0usize..64,
        n in 100usize..1_000,
    ) {
        let q = std::sync::Arc::new(MpmcQueue::with_initial_ticket(8, usize::MAX - offset));
        let qc = std::sync::Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                if let Some(v) = qc.try_pop() {
                    got.push(v);
                } else {
                    std::hint::spin_loop();
                }
            }
            got
        });
        for i in 0..n as u64 {
            q.push(i);
        }
        let got = consumer.join().expect("consumer");
        prop_assert_eq!(got, (0..n as u64).collect::<Vec<_>>());
    }
}
