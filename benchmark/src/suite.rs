//! The per-layer suite of the traced run: every number here is taken from
//! outside the product, by timing calls into public functions, by reading
//! what the public API already reports, or from `lci_trace` counter deltas.
//!
//! Ladder metrics are differences of rung medians (see [`crate::stream`]);
//! the rungs of one repetition run back to back so that slow drift of the
//! allocator hits all of them alike and cancels. Everything timed on the
//! calling thread is corrected for clock drift like the end-to-end times
//! (see [`crate::clock`]); what two host threads do together, and what the
//! engines report about themselves, is not.

use crate::apps::{self, AppRun, Engine, Inputs, Problem, Variant, HOSTS};
use crate::clock;
use crate::stats::median;
use crate::stream::{
    self, DeviceRung, EndpointRung, FrameRung, MpiRung, Payloads, ReliableRung, Spans, Transport,
    Untraced,
};
use crate::{Metric, Outcome};
use abelian::comm::{exchange_all, ChannelSpec};
use abelian::LayerKind;
use lci::{MpmcQueue, PacketPool};
use lci_fabric::{Fabric, FabricConfig, Fault, FaultPlan};
use lci_trace::{Counter, EventKind, Span};
use std::hint::black_box;
use std::time::Instant;

const SMALL: usize = 64;
const BULK: usize = 4096;
const RDV: usize = 32 << 10;

/// How much work each measurement does. The quick scale exists to print
/// every metric once in a few seconds, not to measure anything.
struct Scale {
    /// Repetitions of each stream (the median is reported).
    stream_reps: usize,
    small_msgs: u64,
    bulk_msgs: u64,
    rdv_msgs: u64,
    /// Repetitions of each engine run (the median is reported).
    app_reps: usize,
    /// Rounds of `exchange_all`, and thousands of primitive operations.
    rounds: u32,
}

const FULL: Scale = Scale {
    stream_reps: 11,
    small_msgs: 50_000,
    bulk_msgs: 2_000,
    rdv_msgs: 1_000,
    app_reps: 3,
    rounds: 2_000,
};

const QUICK: Scale = Scale {
    stream_reps: 1,
    small_msgs: 5_000,
    bulk_msgs: 200,
    rdv_msgs: 100,
    app_reps: 1,
    rounds: 200,
};

struct Suite {
    seed: u64,
    scale: Scale,
    out: Outcome,
}

fn on(layer: LayerKind) -> Variant {
    Variant {
        layer,
        ckpt_every: None,
    }
}

fn wall(run: &AppRun) -> f64 {
    run.wall.as_secs_f64()
}

fn sim_us_per_msg(fabric: &Fabric, n: u64) -> f64 {
    fabric.sim_time_ns().expect("manual fabric") as f64 / 1e3 / n as f64
}

/// Median over a few repetitions of the mean ns per iteration of `op`.
fn ns_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let (wall, scale) = clock::bracket(|| {
                let t0 = Instant::now();
                for i in 0..iters {
                    op(i);
                }
                t0.elapsed()
            });
            wall.as_nanos() as f64 * scale / iters as f64
        })
        .collect();
    median(&reps)
}

impl Suite {
    fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.out.metrics.push(Metric::new(name, value, unit));
    }

    fn wire(&self) -> FabricConfig {
        stream::wire(self.seed)
    }

    /// ns per message of one fresh stream, checked.
    fn stream_ns<T: Transport>(&mut self, mut t: T, payloads: &Payloads, n: u64) -> (f64, T) {
        let (run, scale) = clock::bracket(|| stream::run(&mut t, payloads, n, &mut Untraced));
        self.out.attempted += 1;
        self.out.failed += (run.failed > 0) as u64;
        (run.wall.as_nanos() as f64 * scale / n as f64, t)
    }

    /// Median ns per message over repeated fresh streams through `make()`.
    fn stream_median<T: Transport>(&mut self, len: usize, n: u64, make: impl Fn() -> T) -> f64 {
        let payloads = Payloads::new(len, self.seed);
        let ns: Vec<f64> = (0..self.scale.stream_reps)
            .map(|_| self.stream_ns(make(), &payloads, n).0)
            .collect();
        median(&ns)
    }

    /// Rung medians `[endpoint, +frame, +reliable, +device]` in ns per
    /// message, and the device rung of the last repetition for its counters.
    fn ladder(&mut self, len: usize, n: u64) -> ([f64; 4], DeviceRung) {
        let payloads = Payloads::new(len, self.seed);
        let mut samples: [Vec<f64>; 4] = Default::default();
        let mut last_device = None;
        for _ in 0..self.scale.stream_reps {
            let wire = self.wire();
            let (ns, _) = self.stream_ns(EndpointRung::new(wire.clone()), &payloads, n);
            samples[0].push(ns);
            let (ns, _) = self.stream_ns(FrameRung::new(wire.clone()), &payloads, n);
            samples[1].push(ns);
            let (ns, _) = self.stream_ns(ReliableRung::new(wire.clone()), &payloads, n);
            samples[2].push(ns);
            let (ns, device) = self.stream_ns(DeviceRung::new(wire), &payloads, n);
            samples[3].push(ns);
            last_device = Some(device);
        }
        (
            samples.map(|s| median(&s)),
            last_device.expect("at least one repetition"),
        )
    }

    fn ladder_small(&mut self) {
        let n = self.scale.small_msgs;
        let ([e, f, r, d], device) = self.ladder(SMALL, n);
        self.push("fabric.endpoint_ns_per_msg.64b", e, "ns/msg");
        self.push("fabric.frame_ns_per_msg.64b", f - e, "ns/msg");
        self.push("fabric.reliable_ns_per_msg.64b", r - f, "ns/msg");
        self.push("lci.device_ns_per_msg.64b", d - r, "ns/msg");
        let stats: Vec<_> = device
            .fabric()
            .endpoints()
            .iter()
            .map(|ep| ep.stats())
            .collect();
        let wire_bytes: u64 = stats.iter().map(|s| s.send_bytes + s.put_bytes).sum();
        let packets: u64 = stats.iter().map(|s| s.sends + s.puts).sum();
        self.push(
            "fabric.wire_bytes_per_msg.64b",
            wire_bytes as f64 / n as f64,
            "B/msg",
        );
        self.push(
            "fabric.packets_per_msg.64b",
            packets as f64 / n as f64,
            "1/msg",
        );
        self.push(
            "fabric.sim_us_per_msg.64b",
            sim_us_per_msg(device.fabric(), n),
            "us/msg",
        );
        self.push(
            "lci.enq_rejected_per_kmsg",
            device.a.stats().enq_rejected as f64 * 1e3 / n as f64,
            "1/kmsg",
        );
    }

    fn ladder_bulk(&mut self) {
        let n = self.scale.bulk_msgs;
        let ([e, f, r, d], device) = self.ladder(BULK, n);
        self.push("fabric.frame_ns_per_byte.4k", (f - e) / BULK as f64, "ns/B");
        self.push("lci.device_ns_per_msg.4k", d - r, "ns/msg");
        self.push(
            "fabric.sim_us_per_msg.4k",
            sim_us_per_msg(device.fabric(), n),
            "us/msg",
        );
    }

    fn rendezvous(&mut self) {
        let wire = self.wire();
        let rdv = self.stream_median(RDV, self.scale.rdv_msgs, || DeviceRung::new(wire.clone()));
        self.push("lci.rdv_ns_per_msg.32k", rdv, "ns/msg");
    }

    /// The reliable rung with 1 % of packets dropped for the whole run: the
    /// retransmission path, which the fault-free ladder never enters.
    fn lossy(&mut self) {
        let plan = FaultPlan::none().with_phase(0, u64::MAX, Fault::Drop { prob_ppm: 10_000 });
        let wire = self.wire().with_fault_plan(plan);
        let n = self.scale.small_msgs;
        let before = lci_trace::global().snapshot();
        let ns = self.stream_median(SMALL, n, || ReliableRung::new(wire.clone()));
        let delta = lci_trace::global().snapshot().delta(&before);
        self.push("fabric.reliable_lossy_ns_per_msg.64b", ns, "ns/msg");
        // Every repetition replays the same seeded schedule, so the total is
        // an exact multiple of one repetition's count.
        let sent = self.scale.stream_reps as u64 * n;
        self.push(
            "fabric.retransmits_per_kmsg",
            delta.get(Counter::FabricReliableRetransmits) as f64 * 1e3 / sent as f64,
            "1/kmsg",
        );
    }

    fn mini_mpi(&mut self) {
        let wire = self.wire();
        let ns = self.stream_median(SMALL, self.scale.small_msgs, || MpiRung::new(wire.clone()));
        self.push("mini_mpi.p2p_ns_per_msg.64b", ns, "ns/msg");
        let ns = self.stream_median(BULK, self.scale.bulk_msgs, || MpiRung::new(wire.clone()));
        self.push("mini_mpi.p2p_ns_per_msg.4k", ns, "ns/msg");
    }

    /// The 64 B device stream once more with a span around each of the
    /// driver's four calls: where the per-message time sits by call site.
    fn device_spans(&mut self) {
        let n = self.scale.small_msgs;
        let payloads = Payloads::new(SMALL, self.seed);
        let mut per_site: [Vec<f64>; 4] = Default::default();
        for _ in 0..self.scale.stream_reps {
            let mut rung = DeviceRung::new(self.wire());
            let mut spans = Spans::default();
            let (run, scale) = clock::bracket(|| stream::run(&mut rung, &payloads, n, &mut spans));
            self.out.attempted += 1;
            self.out.failed += (run.failed > 0) as u64;
            for (site, ns) in per_site.iter_mut().zip(spans.ns) {
                site.push(ns as f64 * scale / n as f64);
            }
        }
        let names = [
            "lci.send_enq_span_ns_per_msg.64b",
            "fabric.wire_span_ns_per_msg.64b",
            "lci.progress_span_ns_per_msg.64b",
            "lci.recv_deq_span_ns_per_msg.64b",
        ];
        for (name, samples) in names.into_iter().zip(&per_site) {
            self.push(name, median(samples), "ns/msg");
        }
    }

    fn primitives(&mut self) {
        let iters = self.scale.rounds as u64 * 1_000;
        let cfg = lci::LciConfig::for_hosts(HOSTS);
        let pool = PacketPool::new(cfg.packet_count, cfg.packet_payload, cfg.pool_shards);
        let pool_ns = ns_per_op(iters, |_| {
            let packet = pool.alloc().expect("a pool with one user is never empty");
            pool.free(black_box(packet));
        });
        self.push("lci.pool_ns_per_op", pool_ns, "ns/op");

        let queue = MpmcQueue::new(256);
        let queue_ns = ns_per_op(iters, |i| {
            queue.push(black_box(i));
            black_box(queue.try_pop());
        });
        self.push("lci.queue_ns_per_op", queue_ns, "ns/op");

        // Counter and event kind chosen so that these loops touch nothing
        // another section of the suite reads back.
        let incr_ns = ns_per_op(iters, |_| lci_trace::incr(Counter::LciBackoffWaits));
        self.push("trace.incr_ns", incr_ns, "ns/op");
        let span_ns = ns_per_op(iters / 4, |_| {
            black_box(Span::enter(Counter::PhaseControlNs).finish());
        });
        self.push("trace.span_ns", span_ns, "ns/op");
        let record_ns = ns_per_op(iters, |i| lci_trace::record(EventKind::Custom, 0, i));
        self.push("trace.record_ns", record_ns, "ns/op");
    }

    /// One `exchange_all` of 64 B payloads between two host threads, per
    /// layer: the fixed cost under every engine round. A round ends when the
    /// slower host has its data, so one repetition's figure is the larger of
    /// the two hosts' means, and the median over repetitions on fresh layers
    /// is reported. Where the scheduler puts three busy threads on two cores
    /// moves all three figures together by up to a factor of two for seconds
    /// at a time, so the layers of one repetition run back to back, like the
    /// rungs of the ladder: their ratios hold better than their values.
    fn exchange(&mut self) {
        let kinds = [LayerKind::Lci, LayerKind::MpiProbe, LayerKind::MpiRma];
        let mut samples: [Vec<f64>; 3] = Default::default();
        for _ in 0..self.scale.stream_reps {
            for (us, kind) in samples.iter_mut().zip(kinds) {
                us.push(self.exchange_us(kind));
            }
        }
        let names = [
            "abelian.exchange_us.lci",
            "abelian.exchange_us.mpi_probe",
            "abelian.exchange_us.mpi_rma",
        ];
        for (name, us) in names.into_iter().zip(&samples) {
            self.push(name, median(us), "us");
        }
    }

    /// Mean µs per `exchange_all` round on fresh layers of `kind`, as the
    /// slower host saw it, checked.
    fn exchange_us(&mut self, kind: LayerKind) -> f64 {
        const CHANNEL: usize = 0;
        let rounds = self.scale.rounds;
        let (layers, _world) = apps::layers(kind, self.seed);
        let per_host: Vec<(f64, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = layers
                .iter()
                .map(|layer| {
                    scope.spawn(move || {
                        let me = layer.rank();
                        // The RMA layer stages a length header in the
                        // slot it sizes from this spec; leave room.
                        let spec = ChannelSpec::uniform(HOSTS, me, SMALL + 32);
                        layer.register_channel(CHANNEL, spec);
                        let mut intact = true;
                        let t0 = Instant::now();
                        for round in 0..rounds {
                            let mine = vec![vec![round as u8 ^ me as u8; SMALL]; HOSTS];
                            for (src, data) in exchange_all(&**layer, CHANNEL, mine) {
                                intact &= data == [round as u8 ^ src as u8; SMALL];
                            }
                        }
                        let us = t0.elapsed().as_secs_f64() * 1e6 / rounds as f64;
                        layer.quiesce();
                        (us, intact)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("exchange host thread"))
                .collect()
        });
        self.out.attempted += 1;
        self.out.failed += per_host.iter().any(|(_, intact)| !intact) as u64;
        per_host.iter().map(|(us, _)| *us).fold(0.0, f64::max)
    }

    /// One checked engine run.
    fn app_run(&mut self, inputs: &Inputs, variant: Variant) -> Option<AppRun> {
        self.out.attempted += 1;
        inputs
            .run(variant)
            .inspect_err(|why| {
                eprintln!("suite: {why}");
                self.out.failed += 1;
            })
            .ok()
    }

    /// Repeat an engine run; the run with the median wall time, if any
    /// repetition was correct.
    fn app_runs(&mut self, inputs: &Inputs, variant: Variant) -> Option<AppRun> {
        let mut runs: Vec<AppRun> = (0..self.scale.app_reps)
            .filter_map(|_| self.app_run(inputs, variant))
            .collect();
        runs.sort_by_key(|r| r.wall);
        let mid = runs.len() / 2;
        runs.into_iter().nth(mid)
    }

    /// Push `pick(run)`, or NaN — which fails the run when the result is
    /// written — if no repetition produced a correct run.
    fn push_from(
        &mut self,
        run: &Option<AppRun>,
        name: &str,
        unit: &str,
        pick: impl Fn(&AppRun) -> f64,
    ) {
        self.push(name, run.as_ref().map_or(f64::NAN, pick), unit);
    }

    fn pagerank_abelian(&mut self) {
        let abelian = Inputs::build(Problem::PagerankRmat, Engine::Abelian, self.seed);
        self.push("graph.gen_s", abelian.gen_s, "s");
        self.push("graph.partition_s", abelian.partition_s, "s");
        let plain = self.app_runs(&abelian, on(LayerKind::Lci));
        self.push_from(&plain, "abelian.compute_s.pagerank_rmat", "s", |r| {
            r.compute.as_secs_f64()
        });
        self.push_from(&plain, "abelian.comm_s.pagerank_rmat", "s", |r| {
            r.comm.as_secs_f64()
        });
        self.push_from(&plain, "abelian.sent_entries.pagerank_rmat", "count", |r| {
            r.sent_entries as f64
        });
        self.push_from(&plain, "abelian.rdv_opened.pagerank_rmat", "count", |r| {
            r.rdv_opened as f64
        });
        self.push_from(
            &plain,
            "abelian.membook_peak_bytes.pagerank_rmat",
            "B",
            |r| r.mem_peak as f64,
        );
        let run = self.app_runs(&abelian, on(LayerKind::MpiProbe));
        self.push_from(&run, "abelian.run_s.pagerank_rmat.mpi_probe", "s", wall);
        let run = self.app_runs(&abelian, on(LayerKind::MpiRma));
        self.push_from(&run, "abelian.run_s.pagerank_rmat.mpi_rma", "s", wall);
        let every_8 = Variant {
            layer: LayerKind::Lci,
            ckpt_every: Some(8),
        };
        // The overhead is a few percent, less than the machine drifts over
        // one suite section: alternate the two variants and compare medians.
        let (mut plain_s, mut ckpt_s) = (Vec::new(), Vec::new());
        for _ in 0..2 * self.scale.app_reps {
            plain_s.extend(
                self.app_run(&abelian, on(LayerKind::Lci))
                    .as_ref()
                    .map(wall),
            );
            ckpt_s.extend(self.app_run(&abelian, every_8).as_ref().map(wall));
        }
        let overhead = if plain_s.is_empty() || ckpt_s.is_empty() {
            f64::NAN
        } else {
            median(&ckpt_s) / median(&plain_s) - 1.0
        };
        self.push(
            "abelian.ckpt_overhead_frac.pagerank_rmat",
            overhead,
            "ratio",
        );
    }

    fn pagerank_gemini(&mut self) {
        let gemini = Inputs::build(Problem::PagerankRmat, Engine::Gemini, self.seed);
        let run = self.app_runs(&gemini, on(LayerKind::Lci));
        self.push_from(&run, "gemini.compute_s.pagerank_rmat", "s", |r| {
            r.compute.as_secs_f64()
        });
        self.push_from(&run, "gemini.comm_s.pagerank_rmat", "s", |r| {
            r.comm.as_secs_f64()
        });
        self.push_from(&run, "gemini.egr_sent.pagerank_rmat", "count", |r| {
            r.egr_sent as f64
        });
        self.push_from(&run, "gemini.send_bytes.pagerank_rmat", "B", |r| {
            r.wire_send_bytes as f64
        });
        let run = self.app_runs(&gemini, on(LayerKind::MpiProbe));
        self.push_from(&run, "gemini.run_s.pagerank_rmat.mpi_probe", "s", wall);
    }

    fn bfs_chain(&mut self) {
        for (round_us, retransmits, engine) in [
            (
                "abelian.round_us.bfs_chain",
                "abelian.retransmits.bfs_chain",
                Engine::Abelian,
            ),
            (
                "gemini.round_us.bfs_chain",
                "gemini.retransmits.bfs_chain",
                Engine::Gemini,
            ),
        ] {
            let inputs = Inputs::build(Problem::BfsChain, engine, self.seed);
            let run = self.app_runs(&inputs, on(LayerKind::Lci));
            self.push_from(&run, round_us, "us", |r| wall(r) * 1e6 / r.rounds as f64);
            self.push_from(&run, retransmits, "count", |r| r.retransmits as f64);
        }
    }
}

/// The suite's sections, in reporting order. Each runs in a process of its
/// own (see `main.rs`): in one shared process the allocator state left by
/// the bulk streams tripled the rendezvous stream's per-message time.
pub const SECTIONS: [&str; 11] = [
    "ladder_small",
    "ladder_bulk",
    "rendezvous",
    "lossy",
    "mini_mpi",
    "device_spans",
    "primitives",
    "exchange",
    "pagerank_abelian",
    "pagerank_gemini",
    "bfs_chain",
];

/// Run one section; `None` if there is no section of that name.
pub fn run(section: &str, seed: u64, quick: bool) -> Option<Outcome> {
    let mut suite = Suite {
        seed,
        scale: if quick { QUICK } else { FULL },
        out: Outcome::default(),
    };
    match section {
        "ladder_small" => suite.ladder_small(),
        "ladder_bulk" => suite.ladder_bulk(),
        "rendezvous" => suite.rendezvous(),
        "lossy" => suite.lossy(),
        "mini_mpi" => suite.mini_mpi(),
        "device_spans" => suite.device_spans(),
        "primitives" => suite.primitives(),
        "exchange" => suite.exchange(),
        "pagerank_abelian" => suite.pagerank_abelian(),
        "pagerank_gemini" => suite.pagerank_gemini(),
        "bfs_chain" => suite.bfs_chain(),
        _ => return None,
    }
    Some(suite.out)
}
