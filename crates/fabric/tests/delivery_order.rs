//! The manual wire's delivery order, pinned message by message.
//!
//! Aggregates (counts, bytes, the virtual clock at the end) can stay equal
//! while the order underneath them moves. Here both hosts of a jittered
//! two-host wire send bursts of 64 B and 4 KiB messages interleaved with
//! `step` and `advance_virtual`, one receiver stops polling for a while so
//! that its credits run out and sends bounce and retry, and every delivered
//! `(receiver, source, header, virtual arrival time)` is folded, in delivery
//! order, into one digest per seed. A change to the schedule's ordering, the
//! RNG draws, link serialisation or the retry path moves the digest.

use lci_fabric::{Endpoint, Event, Fabric, FabricConfig};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold in every message waiting at the polled hosts, stamped with the
    /// virtual time `t`; returns how many there were.
    fn deliveries(&mut self, eps: &[Endpoint], polled: impl Fn(usize) -> bool, t: u64) -> u64 {
        let mut n = 0;
        for (h, ep) in eps.iter().enumerate().filter(|&(h, _)| polled(h)) {
            while let Some(ev) = ep.poll() {
                if let Event::Recv { src, header, .. } = ev {
                    for w in [h as u64, src as u64, header, t] {
                        self.word(w);
                    }
                    n += 1;
                }
            }
        }
        n
    }
}

/// Drive the workload for `seed` and return the digest of every delivery
/// and the number of deliveries.
fn delivery_digest(seed: u64) -> (u64, u64) {
    let f = Fabric::new_manual(FabricConfig::deterministic(2, seed));
    let eps = f.endpoints();
    let mut lcg = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut draw = move |n: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % n
    };
    let small = [0x11u8; 64];
    let large = vec![0x22u8; 4096];
    let mut digest = Digest(0xCBF2_9CE4_8422_2325);
    let mut delivered = 0u64;
    let mut next_header = 0u64;
    for round in 0..500u64 {
        // Host 1 stops polling for a stretch, so host 0's sends find no
        // receive credit and go through the bounce-and-retry path.
        let host1_deaf = (150..350).contains(&round);
        for _ in 0..draw(12) {
            let src = draw(2) as usize;
            let body: &[u8] = if draw(4) == 0 { &large } else { &small };
            // Back-pressure is an outcome of the schedule too: skip the send.
            if eps[src].try_send(1 - src as u16, next_header, body, 0).is_ok() {
                next_header += 1;
            }
        }
        if draw(8) == 0 {
            f.advance_virtual(draw(3_000));
        }
        for _ in 0..=draw(6) {
            if !f.step() {
                break;
            }
            let t = f.sim_time_ns().expect("manual fabric");
            delivered += digest.deliveries(&eps, |h| h == 0 || !host1_deaf, t);
        }
    }
    while f.step() {
        let t = f.sim_time_ns().expect("manual fabric");
        delivered += digest.deliveries(&eps, |_| true, t);
    }
    assert_eq!(delivered, next_header, "every admitted send was delivered once");
    assert!(
        eps[0].stats().rnr_retries > 0,
        "the deaf stretch must exercise the retry path"
    );
    (digest.0, delivered)
}

#[test]
fn delivery_order_and_arrival_times_are_pinned() {
    let got: Vec<(u64, u64)> = (1..=3).map(delivery_digest).collect();
    // Captured on the wire whose schedule was a heap of whole operations and
    // whose injections waited in a vector for the next step.
    let want: [(u64, u64); 3] = [
        (0x3BD2_5074_83E6_50DF, 1747),
        (0x611A_345E_8EDF_1A14, 1692),
        (0x63C5_DE6A_2AD2_8358, 1787),
    ];
    assert_eq!(got, want, "(digest, deliveries) for seeds 1-3");
}
