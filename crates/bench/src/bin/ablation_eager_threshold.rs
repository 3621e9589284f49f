//! **Ablation** — the eager/rendezvous protocol threshold.
//!
//! LCI selects eager (copy through a pooled packet) for small messages and
//! rendezvous (RTS/RTR + RDMA put, zero intermediate copy) for large ones,
//! "selected automatically depending on the size of the incoming buffer"
//! (§III-D). This ablation sweeps the threshold on a ping-pong across
//! payload sizes: eager wins below the crossover (one wire trip vs three),
//! rendezvous wins above it (no packet-size ceiling, no extra copies).
//!
//! Env knobs: `ABL_ITERS` (default 200), `ABL_FABRIC` (default stampede2).

use bytes::Bytes;
use lci::{LciConfig, LciWorld};
use lci_bench::{env_str, env_usize, fabric_by_name, lci_pingpong};
use std::time::Duration;

const PAYLOADS: &[usize] = &[256, 2048, 16384, 49152];
const THRESHOLDS: &[usize] = &[512, 4096, 16 << 10, 60 << 10];

fn main() {
    let iters = env_usize("ABL_ITERS", 200);
    let fabric = env_str("ABL_FABRIC", "stampede2");

    println!("# Ablation: eager/rendezvous threshold (one-way latency, {fabric})");
    print!("{:>10} |", "payload");
    for &t in THRESHOLDS {
        print!(" {:>9}", format!("thr={t}"));
    }
    println!();
    println!("{}", "-".repeat(12 + 10 * THRESHOLDS.len()));

    for &size in PAYLOADS {
        print!("{size:>10} |");
        for &thr in THRESHOLDS {
            let lat = pingpong(&fabric, size, thr, iters);
            print!(" {:>9}", format!("{:.1}us", lat.as_secs_f64() * 1e6));
        }
        println!();
    }
    println!("\neager below the threshold (1 trip + copy), rendezvous above (3 trips, zero copy)");
}

fn pingpong(fabric: &str, size: usize, threshold: usize, iters: usize) -> Duration {
    let cfg = LciConfig {
        eager_limit: threshold,
        packet_payload: threshold.max(64),
        ..Default::default()
    };
    let world = LciWorld::new(fabric_by_name(fabric, 2), cfg);
    lci_pingpong(&world, Bytes::from(vec![1u8; size]), iters, (iters / 10).max(2))
}
