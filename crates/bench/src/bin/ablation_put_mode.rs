//! **Ablation** — native RDMA put vs emulated (tag-matching) put.
//!
//! The paper ports `lc_put` to ibverbs (native `IBV_WR_RDMA_WRITE`) and to
//! psm2 (no RDMA write: emulated over the tag-matching send path). This
//! ablation measures what the native path buys on large transfers: the
//! emulated path burns pooled packets, pays per-fragment headers, and
//! serializes through the eager machinery.
//!
//! Env knobs: `ABL_ITERS` (default 150), `ABL_FABRIC` (default stampede2).

use bytes::Bytes;
use lci::{LciConfig, LciWorld, PutMode};
use lci_bench::{env_str, env_usize, fabric_by_name, lci_pingpong};
use std::time::Duration;

const PAYLOADS: &[usize] = &[16 << 10, 64 << 10, 256 << 10];

fn main() {
    let iters = env_usize("ABL_ITERS", 150);
    let fabric = env_str("ABL_FABRIC", "stampede2");

    println!("# Ablation: rendezvous data path — native RDMA vs emulated (psm2-style)");
    println!(
        "{:>10} | {:>12} {:>12} | {:>8}",
        "payload", "rdma", "emulated", "ratio"
    );
    println!("{}", "-".repeat(52));
    for &size in PAYLOADS {
        let rdma = pingpong(&fabric, size, PutMode::Rdma, iters);
        let emul = pingpong(&fabric, size, PutMode::Emulated, iters);
        println!(
            "{:>10} | {:>12} {:>12} | {:>7.2}x",
            size,
            fmt(rdma),
            fmt(emul),
            emul.as_secs_f64() / rdma.as_secs_f64()
        );
    }
    println!("\n(the paper's reason to 'leverage modern NIC capabilities' directly)");
}

fn fmt(d: Duration) -> String {
    format!("{:.1}us", d.as_secs_f64() * 1e6)
}

fn pingpong(fabric: &str, size: usize, mode: PutMode, iters: usize) -> Duration {
    let mut fcfg = fabric_by_name(fabric, 2);
    fcfg.max_payload = 1 << 17;
    let world = LciWorld::new(fcfg, LciConfig::default().with_put_mode(mode));
    lci_pingpong(&world, Bytes::from(vec![3u8; size]), iters, (iters / 10).max(2))
}
