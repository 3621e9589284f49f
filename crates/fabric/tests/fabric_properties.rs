//! Property-based tests of fabric invariants: conservation (every injected
//! message is delivered exactly once with intact payload), credit balance,
//! and per-source FIFO on a jitter-free wire.

use lci_fabric::{Event, Fabric, FabricConfig, WireModel};
use proptest::prelude::*;
use std::time::{Duration, Instant};

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every message injected by every host is delivered exactly once, with
    /// its payload intact, regardless of sizes and interleavings.
    #[test]
    fn conservation_and_integrity(
        hosts in 2usize..5,
        msgs in prop::collection::vec((0u64..4, 0usize..2000), 1..40),
    ) {
        let f = Fabric::new(FabricConfig::test(hosts));
        let eps = f.endpoints();
        let mut expected = 0usize;
        for (i, &(dst_sel, len)) in msgs.iter().enumerate() {
            let src = i % hosts;
            let dst = (dst_sel as usize) % hosts;
            if dst == src {
                continue;
            }
            // Header encodes the message index for integrity checking.
            let payload = vec![(i % 251) as u8; len];
            eps[src]
                .try_send(dst as u16, i as u64, &payload, i as u64)
                .unwrap();
            expected += 1;
        }
        // Collect every delivery.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut got = Vec::new();
        while got.len() < expected {
            for ep in &eps {
                if let Some(Event::Recv { header, data, .. }) = ep.poll() {
                    got.push((header, data.into_vec()));
                }
            }
            prop_assert!(Instant::now() < deadline, "lost messages: {}/{expected}", got.len());
        }
        for (header, data) in got {
            let i = header as usize;
            let (_, len) = msgs[i];
            prop_assert_eq!(data.len(), len);
            prop_assert!(data.iter().all(|&b| b == (i % 251) as u8));
        }
    }

    /// With a jitter-free wire, messages between one (src, dst) pair are
    /// delivered in injection order.
    #[test]
    fn per_pair_fifo_without_jitter(count in 1usize..60) {
        let mut cfg = FabricConfig::test(2);
        cfg.wire = WireModel { base_latency_ns: 1_000, ns_per_byte: 0.1, jitter_ns: 0, put_extra_ns: 0 };
        let f = Fabric::new(cfg);
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        for i in 0..count {
            a.try_send(1, i as u64, &[0u8; 16], 0).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut next = 0u64;
        while next < count as u64 {
            if let Some(Event::Recv { header, .. }) = b.poll() {
                prop_assert_eq!(header, next, "FIFO violated");
                next += 1;
            }
            prop_assert!(Instant::now() < deadline);
        }
    }

    /// Receive credits always return to the initial level once all packets
    /// are dropped.
    #[test]
    fn credits_balance(burst in 1usize..50) {
        let cfg = FabricConfig::test(2).with_rx_buffers(64);
        let f = Fabric::new(cfg);
        let a = f.endpoint(0);
        let b = f.endpoint(1);
        for i in 0..burst.min(60) {
            a.try_send(1, i as u64, b"x", 0).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut held = Vec::new();
        while held.len() < burst.min(60) {
            if let Some(Event::Recv { data, .. }) = b.poll() {
                held.push(data);
            }
            prop_assert!(Instant::now() < deadline);
        }
        prop_assert_eq!(b.rx_credits(), 64 - held.len() as i64);
        drop(held);
        prop_assert_eq!(b.rx_credits(), 64);
    }
}
