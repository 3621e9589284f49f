//! `lcibench` — the repository benchmark (contract: `BENCHMARK.json`, guide:
//! `benchmark/README.md`).
//!
//! One invocation measures one workload in a fresh process:
//!
//! ```text
//! lcibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload's fixed work for `<s>` seconds with no
//! harness-side tracing and prints the end-to-end metrics; `--trace 1`
//! alternates traced and untraced repetitions of the workload for `<s>`
//! seconds, then runs the per-layer suite (each section in a child process of
//! its own, see [`suite::SECTIONS`]), and prints the per-layer metrics. The
//! suite is the same fixed work whichever workload is named and takes about
//! 25 s more, whatever `<s>` is. Either way every
//! output is checked, and the last line of stdout is the result as one JSON
//! object. `--quick` and `--repeat-check` (see [`check`]) drive this same
//! binary as child processes too.

mod apps;
mod check;
mod clock;
mod stats;
mod stream;
mod suite;

use apps::{Engine, Inputs, Problem, Variant};
use stats::{median, quantile, undisturbed};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stream::{DeviceRung, Payloads, Spans, Untraced};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }
}

#[derive(Clone, Copy)]
enum Kind {
    /// `msgs` messages of `len` bytes, `Device` → `Device`, per repetition.
    Stream { len: usize, msgs: u64 },
    /// One engine run to solution per repetition.
    App(Problem, Engine),
}

pub struct Workload {
    pub name: &'static str,
    kind: Kind,
}

/// Fixed order; why each exists is recorded in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "stream_small",
        kind: Kind::Stream {
            len: 64,
            msgs: 100_000,
        },
    },
    Workload {
        name: "stream_bulk",
        kind: Kind::Stream {
            len: 4096,
            msgs: 5_000,
        },
    },
    Workload {
        name: "pagerank_rmat_abelian",
        kind: Kind::App(Problem::PagerankRmat, Engine::Abelian),
    },
    Workload {
        name: "pagerank_rmat_gemini",
        kind: Kind::App(Problem::PagerankRmat, Engine::Gemini),
    },
    Workload {
        name: "bfs_chain_abelian",
        kind: Kind::App(Problem::BfsChain, Engine::Abelian),
    },
    Workload {
        name: "bfs_chain_gemini",
        kind: Kind::App(Problem::BfsChain, Engine::Gemini),
    },
];

/// A workload's inputs, ready to repeat.
enum Prepared {
    Stream {
        payloads: Payloads,
        msgs: u64,
        seed: u64,
    },
    App(Inputs),
}

/// One repetition: its wall time in pieces (see [`stats::undisturbed`]) if
/// every output was correct.
struct Rep {
    pieces: Option<Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Prepared {
    /// Build the inputs from the seed and construct (then drop) one world,
    /// which is everything that happens before the first timed repetition.
    fn new(kind: Kind, seed: u64) -> Prepared {
        match kind {
            Kind::Stream { len, msgs } => {
                let payloads = Payloads::new(len, seed);
                drop(DeviceRung::new(stream::wire(seed)));
                Prepared::Stream {
                    payloads,
                    msgs,
                    seed,
                }
            }
            Kind::App(problem, engine) => {
                let inputs = Inputs::build(problem, engine, seed);
                inputs.build_world();
                Prepared::App(inputs)
            }
        }
    }

    /// The workload's fixed work once, on a fresh world. A traced
    /// repetition adds what the harness does to attribute time: a counter-
    /// registry delta and, for a stream, a span around each call into the
    /// stack. The harness makes no calls of its own inside an engine run, so
    /// for an app the two kinds of repetition differ by two snapshots only.
    fn rep(&self, traced: bool) -> Rep {
        let before = traced.then(|| lci_trace::global().snapshot());
        let rep = match self {
            Prepared::Stream {
                payloads,
                msgs,
                seed,
            } => {
                let mut rung = DeviceRung::new(stream::wire(*seed));
                let run = if traced {
                    stream::run(&mut rung, payloads, *msgs, &mut Spans::default())
                } else {
                    stream::run(&mut rung, payloads, *msgs, &mut Untraced)
                };
                Rep {
                    pieces: (run.failed == 0).then_some(run.laps),
                    attempted: run.n,
                    failed: run.failed,
                }
            }
            Prepared::App(inputs) => match inputs.run(Variant::default()) {
                Ok(run) => Rep {
                    pieces: Some(run.pieces),
                    attempted: 1,
                    failed: 0,
                },
                Err(why) => {
                    eprintln!("repetition failed: {why}");
                    Rep {
                        pieces: None,
                        attempted: 1,
                        failed: 1,
                    }
                }
            },
        };
        if let Some(before) = before {
            std::hint::black_box(lci_trace::global().snapshot().delta(&before));
        }
        rep
    }
}

/// What a run measured, before it is printed: the metrics, and how many
/// checked operations there were and how many of them failed.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn count(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Smallest run that still prints every metric (for `--quick`).
    quick: bool,
}

/// Set up repeatedly; the last set-up is used. `setup_s` is the median over
/// batches of the mean set-up time in a batch, corrected for clock drift
/// like the repetition times. A batch is as many set-ups as fit in 50 ms
/// (one, for the graph workloads): a stream's 30 µs set-up timed alone, just
/// after the 4 ms calibration chain has had the caches, reads three to five
/// times too long.
fn set_up(args: &Args) -> (Prepared, f64) {
    let (min_batches, batch, budget) = if args.quick {
        (1, Duration::ZERO, Duration::ZERO)
    } else {
        (3, Duration::from_millis(50), Duration::from_secs(1))
    };
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let ((prepared, mean_s), scale) = clock::bracket(|| {
            let t0 = Instant::now();
            let mut n = 0;
            loop {
                let prepared = Prepared::new(args.workload.kind, args.seed);
                n += 1;
                let elapsed = t0.elapsed();
                if elapsed >= batch {
                    return (prepared, elapsed.as_secs_f64() / f64::from(n));
                }
            }
        });
        samples.push(mean_s * scale);
        if samples.len() >= min_batches && start.elapsed() >= budget {
            return (prepared, median(&samples));
        }
    }
}

/// Timed repetitions for `seconds`; the first of each kind is a warm-up and
/// is checked but not timed. Returns `(untraced, traced)` repetition times
/// in pieces, corrected for clock drift (see [`clock`]).
fn repeat(args: &Args, prepared: &Prepared, out: &mut Outcome) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let min_reps = if args.quick { 2 } else { 4 };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0.. {
        if i >= min_reps && Instant::now() >= deadline {
            break;
        }
        for (on, times) in [(false, &mut untraced), (true, &mut traced)] {
            if on && !args.trace {
                continue;
            }
            let (rep, scale) = clock::bracket(|| prepared.rep(on));
            out.count(&rep);
            if i > 0 {
                times.extend(
                    rep.pieces
                        .map(|pieces| pieces.iter().map(|s| s * scale).collect()),
                );
            }
        }
    }
    (untraced, traced)
}

fn measure(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (prepared, setup_s) = set_up(args);
    let (untraced, traced) = repeat(args, &prepared, &mut out);
    drop(prepared);
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        eprintln!(
            "no repetition of {} completed correctly",
            args.workload.name
        );
        out.failed = out.failed.max(1);
        return out;
    }
    eprintln!(
        "{}: {} timed repetitions after 1 warm-up",
        args.workload.name,
        untraced.len()
    );
    if !args.trace {
        out.metrics
            .push(Metric::new("time_s", undisturbed(&untraced), "s"));
        out.metrics.push(Metric::new("setup_s", setup_s, "s"));
        return out;
    }
    let whole: Vec<f64> = untraced.iter().map(|rep| rep.iter().sum()).collect();
    out.metrics.push(Metric::new(
        "harness.trace_overhead_frac",
        undisturbed(&traced) / undisturbed(&untraced) - 1.0,
        "ratio",
    ));
    out.metrics
        .push(Metric::new("harness.rep_median_s", median(&whole), "s"));
    out.metrics
        .push(Metric::new("harness.rep_p90_s", quantile(&whole, 0.9), "s"));
    for section in suite::SECTIONS {
        let mut child = vec!["--section", section, "--seed"];
        let seed = args.seed.to_string();
        child.push(&seed);
        if args.quick {
            child.push("--quick");
        }
        match check::run_self(&child, false) {
            Ok(result) => {
                out.attempted += result.attempted;
                out.failed += result.failed;
                out.metrics.extend(result.metrics);
            }
            Err(why) => {
                eprintln!("suite section failed: {why}");
                out.failed += 1;
            }
        }
    }
    out
}

/// Print every metric by name with its unit, then the result line the
/// contract asks for. A non-finite value counts as a failure.
fn report(out: &Outcome) -> bool {
    let mut failed = out.failed;
    let mut fields = Vec::new();
    for m in &out.metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("metric {} is not finite", m.name);
            failed += 1;
            continue;
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        fields.join(", ")
    );
    correct
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lcibench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      lcibench --section <name> --seed <n> [--quick]\n\
         \x20      lcibench --manifest <BENCHMARK.json> [--quick | --repeat-check]\n\
         workloads: {}\nsections: {}",
        WORKLOADS.map(|w| w.name).join(" "),
        suite::SECTIONS.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| argv.iter().any(|a| a == name);
    let value = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    if let Some(manifest) = value("--manifest") {
        let mode = if flag("--repeat-check") {
            check::Mode::RepeatCheck
        } else if flag("--quick") {
            check::Mode::Quick
        } else {
            check::Mode::Show
        };
        return match check::run(manifest, mode) {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("FAILED: {why}");
                ExitCode::FAILURE
            }
        };
    }
    let seed = value("--seed").and_then(|s| s.parse::<u64>().ok());
    if let (Some(section), Some(seed)) = (value("--section"), seed) {
        return match suite::run(section, seed, flag("--quick")) {
            Some(out) if report(&out) => ExitCode::SUCCESS,
            Some(_) => ExitCode::FAILURE,
            None => usage(),
        };
    }
    let workload = value("--workload").and_then(|name| WORKLOADS.iter().find(|w| w.name == name));
    let seconds = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| (0.0..=600.0).contains(s));
    let trace = match value("--trace") {
        Some("0") => Some(false),
        Some("1") => Some(true),
        _ => None,
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        quick: flag("--quick"),
    };
    if report(&measure(&args)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
