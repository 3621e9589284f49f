//! **Figure 1** — latency and message-rate microbenchmark comparing three
//! receive disciplines between two hosts:
//!
//! * `no-probe` — MPI send/recv with pre-posted, fully-directed receives
//!   (the best case MPI allows when sizes are known in advance);
//! * `probe`    — MPI with wildcard `MPI_Iprobe` + directed `MPI_Irecv`
//!   (what irregular graph analytics actually has to do);
//! * `queue`    — the LCI Queue (`SEND-ENQ`/`RECV-DEQ`).
//!
//! The paper reports LCI improving latency up to 3.5× vs probe; the
//! reproduction target is the *ordering* (queue < no-probe < probe) and a
//! growing gap for the probe discipline.
//!
//! Env knobs: `FIG1_ITERS` (default 300), `FIG1_WINDOW` (default 32),
//! `FIG1_FABRIC` (default stampede2).

use bytes::Bytes;
use lci::{LciConfig, LciWorld};
use lci_bench::{emit, env_str, env_usize, fabric_by_name};
use lci_bench::{lci_pingpong, lci_recv_one, lci_send_one};
use mini_mpi::{MpiConfig, MpiWorld, Personality};
use std::time::{Duration, Instant};

const SIZES: &[usize] = &[8, 64, 512, 4096, 32768];

fn main() {
    let iters = env_usize("FIG1_ITERS", 300);
    let window = env_usize("FIG1_WINDOW", 32);
    let fabric = env_str("FIG1_FABRIC", "stampede2");

    println!("# Figure 1 reproduction: latency & message rate (fabric={fabric}, iters={iters})");
    println!(
        "{:>8} | {:>12} {:>12} {:>12} | {:>10} {:>10} {:>10}",
        "size", "no-probe", "probe", "queue", "r(no-p)", "r(probe)", "r(queue)"
    );
    println!("{}", "-".repeat(96));

    let mut report = lci_trace::BenchReport::new("fig1");
    report.trials = iters as u64;
    report.config = vec![
        ("fabric".into(), fabric.clone()),
        ("iters".into(), iters.to_string()),
        ("window".into(), window.to_string()),
    ];
    let section = emit::TraceSection::begin();

    for &size in SIZES {
        let lat_np = mpi_pingpong(&fabric, size, iters, false);
        let lat_pr = mpi_pingpong(&fabric, size, iters, true);
        let payload = Bytes::from(vec![0x42u8; size]);
        // The measuring thread is the communication thread, as in the paper.
        let lat_q = lci_pingpong(&lci_world(&fabric), payload, iters, (iters / 10).max(4));
        let rate_np = mpi_rate(&fabric, size, iters / 4, window, false);
        let rate_pr = mpi_rate(&fabric, size, iters / 4, window, true);
        let rate_q = lci_rate(&fabric, size, iters / 4, window);
        println!(
            "{:>8} | {:>12} {:>12} {:>12} | {:>9.2}M {:>9.2}M {:>9.2}M",
            size,
            fmt_us(lat_np),
            fmt_us(lat_pr),
            fmt_us(lat_q),
            rate_np / 1e6,
            rate_pr / 1e6,
            rate_q / 1e6,
        );
        // Host-load-sensitive numbers: recorded for trending, never gated.
        for (disc, lat, rate) in [
            ("no_probe", lat_np, rate_np),
            ("probe", lat_pr, rate_pr),
            ("queue", lat_q, rate_q),
        ] {
            emit::push_info(
                &mut report,
                &format!("lat_{disc}_{size}b_us"),
                "us",
                lat.as_secs_f64() * 1e6,
            );
            emit::push_info(&mut report, &format!("rate_{disc}_{size}b_per_s"), "per_s", rate);
        }
    }
    emit::attach_trace(&mut report, &section.end());
    emit::write(&report);
    println!("\nlatency = one-way (round-trip / 2); rate = windowed messages/second");
}

fn fmt_us(d: Duration) -> String {
    format!("{:.2}us", d.as_secs_f64() * 1e6)
}

/// MPI ping-pong; `probe` selects the wildcard-probe receive discipline.
fn mpi_pingpong(fabric: &str, size: usize, iters: usize, probe: bool) -> Duration {
    let world = MpiWorld::new(
        fabric_by_name(fabric, 2),
        MpiConfig::default().with_personality(Personality::intel()),
    );
    let a = world.comm(0);
    let b = world.comm(1);
    let payload = Bytes::from(vec![0x42u8; size]);
    let pb = payload.clone();

    let warmup = (iters / 10).max(4);
    let echo = std::thread::spawn(move || {
        for _ in 0..iters + warmup {
            recv_one(&b, probe);
            b.send_blocking(pb.clone(), 0, 7).unwrap();
        }
    });

    let mut rtts = Vec::with_capacity(iters);
    for i in 0..iters + warmup {
        let t0 = Instant::now();
        a.send_blocking(payload.clone(), 1, 7).unwrap();
        recv_one(&a, probe);
        if i >= warmup {
            rtts.push(t0.elapsed());
        }
    }
    echo.join().unwrap();
    median(rtts) / 2
}

/// Median round-trip: robust against the multi-ms scheduler outliers of a
/// single-core simulation host.
fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

fn recv_one(c: &mini_mpi::MpiComm, probe: bool) {
    if probe {
        // The paper's §III-B discipline: wildcard probe, then directed recv.
        loop {
            if let Some(st) = c.iprobe(None, None).unwrap() {
                let req = c.irecv(Some(st.src), Some(st.tag)).unwrap();
                while !c.test_recv(&req).unwrap() {
                    std::thread::yield_now();
                }
                return;
            }
            std::thread::yield_now();
        }
    } else {
        // Directed pre-posted receive: best-case MPI.
        let req = c.irecv(Some((c.rank() + 1) % 2), Some(7)).unwrap();
        while !c.test_recv(&req).unwrap() {
            std::thread::yield_now();
        }
    }
}

/// Windowed message rate: sender streams `window` messages, receiver acks.
fn mpi_rate(fabric: &str, size: usize, reps: usize, window: usize, probe: bool) -> f64 {
    let world = MpiWorld::new(
        fabric_by_name(fabric, 2),
        MpiConfig::default().with_personality(Personality::intel()),
    );
    let a = world.comm(0);
    let b = world.comm(1);
    let payload = Bytes::from(vec![1u8; size]);

    let sink = std::thread::spawn(move || {
        for _ in 0..reps {
            for _ in 0..window {
                recv_one(&b, probe);
            }
            b.send_blocking(Bytes::from_static(b"a"), 0, 9).unwrap();
        }
    });

    let t0 = Instant::now();
    for _ in 0..reps {
        let reqs: Vec<_> = (0..window)
            .map(|_| a.isend(payload.clone(), 1, 7).unwrap())
            .collect();
        for r in &reqs {
            while !a.test_send(r).unwrap() {
                std::thread::yield_now();
            }
        }
        let (_, _) = a.recv_blocking(Some(1), Some(9)).unwrap();
    }
    let dt = t0.elapsed();
    sink.join().unwrap();
    (reps * window) as f64 / dt.as_secs_f64()
}

fn lci_world(fabric: &str) -> LciWorld {
    LciWorld::new(fabric_by_name(fabric, 2), LciConfig::default())
}

fn lci_rate(fabric: &str, size: usize, reps: usize, window: usize) -> f64 {
    let world = lci_world(fabric);
    let a = world.device(0);
    let b = world.device(1);
    let payload = Bytes::from(vec![1u8; size]);

    let sink = std::thread::spawn(move || {
        for _ in 0..reps {
            for _ in 0..window {
                lci_recv_one(&b);
            }
            lci_send_one(&b, Bytes::from_static(b"a"), 0);
        }
    });

    let t0 = Instant::now();
    for _ in 0..reps {
        let mut pending = Vec::with_capacity(window);
        for _ in 0..window {
            loop {
                match a.send_enq(payload.clone(), 1, 7) {
                    Ok(req) => {
                        pending.push(req);
                        break;
                    }
                    Err(e) if e.is_retryable() => {
                        a.progress();
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        }
        for r in &pending {
            while !r.is_done() {
                if a.progress() == 0 {
                    std::thread::yield_now();
                }
            }
        }
        lci_recv_one(&a);
    }
    let dt = t0.elapsed();
    sink.join().unwrap();
    (reps * window) as f64 / dt.as_secs_f64()
}
