//! Quickstart: the LCI Queue interface in five minutes.
//!
//! Spins up a simulated 2-host cluster, sends one eager and one rendezvous
//! message through `SEND-ENQ`/`RECV-DEQ`, and shows the completion-by-flag
//! model and the retryable-failure flow control. One thread plays both
//! hosts, so every wait drives both devices' progress before it yields.
//!
//! Run with: `cargo run --release -p lci-bench --example quickstart`

use bytes::Bytes;
use lci::{LciConfig, LciWorld};
use lci_fabric::FabricConfig;

fn main() {
    // A fabric with realistic Omni-Path-like timing and two hosts.
    let world = LciWorld::new(FabricConfig::stampede2(2), LciConfig::default());
    let alice = world.device(0);
    let bob = world.device(1);
    // Nothing moves on the wire unless someone calls `progress`.
    let drive = || {
        alice.progress();
        bob.progress();
        std::thread::yield_now();
    };

    // --- eager message (≤ eager limit): completes at initiation ----------
    let req = loop {
        match alice.send_enq(Bytes::from_static(b"hello, rank 1!"), 1, 7) {
            Ok(r) => break r,
            // The defining LCI behaviour: initiation can fail benignly when
            // packets or injection slots are exhausted — just retry.
            Err(e) if e.is_retryable() => drive(),
            Err(e) => panic!("fatal: {e}"),
        }
    };
    assert!(req.is_done(), "eager sends are done as soon as they're copied");

    let msg = loop {
        if let Some(r) = bob.recv_deq() {
            break r;
        }
        drive();
    };
    println!(
        "bob got {} bytes from rank {} with tag {}: {:?}",
        msg.len(),
        msg.src(),
        msg.tag(),
        String::from_utf8_lossy(&msg.take_data().unwrap())
    );

    // --- rendezvous message (> eager limit): RTS/RTR + RDMA put ----------
    let big = vec![0xABu8; 100_000];
    let req = loop {
        match alice.send_enq(Bytes::from(big.clone()), 1, 8) {
            Ok(r) => break r,
            Err(e) if e.is_retryable() => drive(),
            Err(e) => panic!("fatal: {e}"),
        }
    };

    let msg = loop {
        if let Some(r) = bob.recv_deq() {
            break r;
        }
        drive();
    };
    // Completion is observed by re-reading a flag — no completion *call*.
    while !(msg.is_done() && req.is_done()) {
        drive();
    }
    let data = msg.take_data().unwrap();
    assert_eq!(data, big);
    println!(
        "bob got the {}-byte rendezvous payload via RDMA put (tag {})",
        data.len(),
        msg.tag()
    );

    println!(
        "alice device stats: {:?}; bob received {} messages",
        alice.stats(),
        bob.stats().received
    );
}
