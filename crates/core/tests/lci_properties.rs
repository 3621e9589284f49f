//! Property-based tests of LCI invariants.

use bytes::Bytes;
use lci::{LciConfig, LciWorld, MpmcQueue, PacketPool};
use lci_fabric::FabricConfig;
use proptest::prelude::*;
use std::time::{Duration, Instant};

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The first-packet queue behaves exactly like a VecDeque for any
    /// single-threaded push/pop interleaving within its bound.
    #[test]
    fn queue_matches_model(ops in prop::collection::vec((any::<bool>(), any::<u32>()), 1..300)) {
        let q = MpmcQueue::new(64);
        let mut model = std::collections::VecDeque::new();
        for (push, v) in ops {
            if push && model.len() < 64 {
                q.push(v);
                model.push_back(v);
            } else {
                prop_assert_eq!(q.try_pop(), model.pop_front());
            }
        }
        while let Some(m) = model.pop_front() {
            prop_assert_eq!(q.try_pop(), Some(m));
        }
        prop_assert_eq!(q.try_pop(), None);
    }

    /// Pool conservation: any alloc/free interleaving conserves capacity and
    /// exhausts exactly at capacity.
    #[test]
    fn pool_conserves_capacity(ops in prop::collection::vec(any::<bool>(), 1..200), cap in 1usize..32) {
        let pool = PacketPool::new(cap, 64, 4);
        let mut held = Vec::new();
        for alloc in ops {
            if alloc {
                match pool.alloc() {
                    Some(p) => held.push(p),
                    None => prop_assert_eq!(held.len(), cap, "premature exhaustion"),
                }
            } else if let Some(p) = held.pop() {
                pool.free(p);
            }
            prop_assert_eq!(pool.outstanding(), held.len());
        }
    }

    /// Any batch of messages of any sizes between two hosts arrives complete
    /// and intact, whatever mix of eager and rendezvous protocols it takes.
    #[test]
    fn arbitrary_size_batches_roundtrip(sizes in prop::collection::vec(0usize..40_000, 1..12)) {
        let w = LciWorld::new(FabricConfig::test(2), LciConfig::default());
        let a = w.device(0);
        let b = w.device(1);
        let n = sizes.len();
        let sz = sizes.clone();
        let recv = std::thread::spawn(move || {
            let mut got = vec![false; n];
            let mut pending = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut done = 0;
            while done < n {
                assert!(Instant::now() < deadline, "stalled at {done}/{n}");
                if let Some(r) = b.recv_deq() {
                    pending.push(r);
                }
                pending.retain(|r| {
                    if r.is_done() {
                        let tag = r.tag() as usize;
                        let data = r.take_data().unwrap();
                        assert_eq!(data.len(), sz[tag]);
                        assert!(data.iter().all(|&x| x == (tag % 256) as u8));
                        assert!(!got[tag], "duplicate");
                        got[tag] = true;
                        done += 1;
                        false
                    } else {
                        true
                    }
                });
                b.progress();
                std::thread::yield_now();
            }
        });
        for (i, &s) in sizes.iter().enumerate() {
            let data = Bytes::from(vec![(i % 256) as u8; s]);
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match a.send_enq(data.clone(), 1, i as u32) {
                    Ok(_) => break,
                    Err(e) if e.is_retryable() => {
                        prop_assert!(Instant::now() < deadline);
                        a.progress();
                        std::thread::yield_now();
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
        }
        // Host 0 keeps driving until host 1 has everything it sent: a
        // rendezvous put leaves only when host 0 reads the RTR.
        while !recv.is_finished() {
            a.progress();
            std::thread::yield_now();
        }
        recv.join().unwrap();
    }
}
