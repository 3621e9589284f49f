//! Whole-benchmark modes, each driving this binary as one fresh child
//! process per workload (a shared process lets one workload's allocator
//! state leak into the next one's timings):
//!
//! * show — every workload untraced, then one traced run, printed;
//! * `--quick` — the smallest runs that still print every metric, checked
//!   name by name against `BENCHMARK.json`;
//! * `--repeat-check` — the acceptance test the driver applies: two sets of
//!   end-to-end runs over the same ten seeds must each stay within the
//!   declared bounds and agree with each other, and the metrics that are
//!   pure functions of the seed must repeat exactly.

use crate::stats::{median, quartiles};
use crate::{Metric, Outcome, WORKLOADS};
use lci_trace::json::Json;
use std::process::{Command, Stdio};

pub enum Mode {
    Show,
    Quick,
    RepeatCheck,
}

/// Runs per set of `--repeat-check`, seeds `1..=RUNS`: the driver takes its
/// quartile spreads over ten runs with ten seeds, and the declared bounds
/// are only comparable with spreads over that many.
const RUNS: u64 = 10;

struct Spec {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// End-to-end metrics only.
    bound: Option<f64>,
}

struct Manifest {
    run_seconds: u64,
    end_to_end: Vec<Spec>,
    per_layer: Vec<Spec>,
}

/// Per-layer metrics measured on the virtual clock or counted by the
/// program: pure functions of the seed, so two runs must print the same
/// digits.
const EXACT: [&str; 6] = [
    "fabric.wire_bytes_per_msg.64b",
    "fabric.packets_per_msg.64b",
    "fabric.sim_us_per_msg.64b",
    "fabric.sim_us_per_msg.4k",
    "fabric.retransmits_per_kmsg",
    "lci.enq_rejected_per_kmsg",
];

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn specs(manifest: &Json, key: &str) -> Result<Vec<Spec>, String> {
    field(manifest, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))?
        .iter()
        .map(|m| {
            Ok(Spec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Manifest, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&raw).map_err(|e| format!("{path}: {e}"))?;
    let workloads = field(&json, "workloads")?
        .as_arr()
        .ok_or("`workloads` is not an array")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<Vec<_>, _>>()?;
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if workloads != ours {
        return Err(format!(
            "{path} lists workloads {workloads:?}, the binary runs {ours:?}"
        ));
    }
    Ok(Manifest {
        run_seconds: field(&json, "run_seconds")?
            .as_u64()
            .ok_or("`run_seconds` is not a whole number")?,
        end_to_end: specs(&json, "end_to_end")?,
        per_layer: specs(&json, "per_layer")?,
    })
}

/// Run this binary with `args` as a fresh process and parse its result
/// line. With `echo`, its human-readable lines are passed on. A child that
/// exits non-zero or reports incorrect outputs is an error.
pub fn run_self(args: &[&str], echo: bool) -> Result<Outcome, String> {
    let what = args.join(" ");
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{what}: spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (human, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    if echo && !human.is_empty() {
        println!("{human}");
    }
    if !out.status.success() {
        return Err(format!("{what}: exited with {}", out.status));
    }
    let json = Json::parse(last).map_err(|e| format!("{what}: result line: {e}"))?;
    if field(&json, "correct")? != &Json::Bool(true) {
        return Err(format!("{what}: outputs were not correct"));
    }
    let Json::Obj(fields) = field(&json, "metrics")? else {
        return Err(format!("{what}: `metrics` is not an object"));
    };
    let count = |key| {
        field(&json, key)?
            .as_u64()
            .ok_or(format!("{what}: `{key}`"))
    };
    Ok(Outcome {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics: fields
            .iter()
            .map(|(name, m)| {
                let value = field(m, "value")?.as_f64().ok_or("value is not a number")?;
                Ok(Metric::new(name, value, &text(m, "unit")?))
            })
            .collect::<Result<_, String>>()?,
    })
}

/// One workload, as the driver would run it.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    echo: bool,
) -> Result<Outcome, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
    ];
    args.extend(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        args.push("--quick");
    }
    run_self(&args, echo)
}

/// Every declared metric printed exactly once, finite, in its unit — and
/// nothing undeclared.
fn names_match(result: &Outcome, specs: &[Spec], what: &str) -> Result<(), String> {
    for spec in specs {
        let hits: Vec<_> = result
            .metrics
            .iter()
            .filter(|m| m.name == spec.name)
            .collect();
        match hits.as_slice() {
            [m] if m.value.is_finite() && m.unit == spec.unit => {}
            [] => return Err(format!("{what}: `{}` was not printed", spec.name)),
            [m] => {
                return Err(format!(
                    "{what}: `{}` printed as {} {}, declared unit {}",
                    spec.name, m.value, m.unit, spec.unit
                ))
            }
            _ => return Err(format!("{what}: `{}` printed more than once", spec.name)),
        }
    }
    match result
        .metrics
        .iter()
        .find(|m| specs.iter().all(|s| s.name != m.name))
    {
        Some(extra) => Err(format!(
            "{what}: `{}` is printed but not declared",
            extra.name
        )),
        None => Ok(()),
    }
}

fn show(manifest: &Manifest) -> Result<(), String> {
    for workload in WORKLOADS.map(|w| w.name) {
        println!(
            "== {workload} (untraced, seed 1, {} s)",
            manifest.run_seconds
        );
        child(workload, 1, manifest.run_seconds, false, false, true)?;
    }
    let first = WORKLOADS[0].name;
    println!("== per-layer suite (traced run of {first}, seed 1)");
    child(first, 1, manifest.run_seconds, true, false, true)?;
    Ok(())
}

fn quick(manifest: &Manifest) -> Result<(), String> {
    for workload in WORKLOADS.map(|w| w.name) {
        let result = child(workload, 1, 0, false, true, false)?;
        names_match(&result, &manifest.end_to_end, workload)?;
        println!(
            "ok  {workload}: {} end-to-end metrics",
            result.metrics.len()
        );
    }
    let first = WORKLOADS[0].name;
    let result = child(first, 1, 0, true, true, false)?;
    names_match(&result, &manifest.per_layer, first)?;
    println!(
        "ok  {first} traced: {} per-layer metrics",
        result.metrics.len()
    );
    Ok(())
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(spec: &Spec, a: f64, b: f64) -> f64 {
    if spec.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn repeat_check(manifest: &Manifest) -> Result<(), String> {
    let mut violations = Vec::new();
    for workload in WORKLOADS.map(|w| w.name) {
        // Two sets over the same seeds, so whatever separates them is
        // run-to-run noise: the second must not look worse than the first
        // although nothing changed, inputs included.
        let mut sets: [Vec<Outcome>; 2] = Default::default();
        for results in &mut sets {
            for seed in 1..=RUNS {
                results.push(child(
                    workload,
                    seed,
                    manifest.run_seconds,
                    false,
                    false,
                    false,
                )?);
            }
        }
        for spec in &manifest.end_to_end {
            let bound = spec.bound.ok_or("end-to-end metric without a bound")?;
            let column = |set: &[Outcome]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|r| {
                        r.value(&spec.name)
                            .ok_or(format!("`{}` missing", spec.name))
                    })
                    .collect()
            };
            let columns = [column(&sets[0])?, column(&sets[1])?];
            // Across the seeds of one set: what the driver computes, input
            // variance included.
            let [first, second] = [&columns[0], &columns[1]].map(|v| quartiles(v));
            let spread = [first, second].map(|[q1, q2, q3]| (q3 - q1) / q2);
            let drift = worse_by(spec, first[1], second[1]);
            // Between the two runs of one seed: noise alone.
            let same_seed: Vec<f64> = columns[0]
                .iter()
                .zip(&columns[1])
                .map(|(a, b)| (b - a).abs() / a)
                .collect();
            println!(
                "{workload:<24} {:<10} medians {:.6} / {:.6} {}  second worse by {:+.2}%  \
                 spreads {:.2}% / {:.2}%  same seed differs by {:.2}% (median)  bound {:.0}%",
                spec.name,
                first[1],
                second[1],
                spec.unit,
                drift * 100.0,
                spread[0] * 100.0,
                spread[1] * 100.0,
                median(&same_seed) * 100.0,
                bound * 100.0
            );
            // The contract exempts set-up time from the spread test only.
            if spec.name != "setup_s" && spread.iter().any(|s| *s > bound) {
                violations.push(format!("{workload} {}: spread above its bound", spec.name));
            }
            if drift > bound {
                violations.push(format!(
                    "{workload} {}: second set worse than its bound",
                    spec.name
                ));
            }
        }
    }
    let first = WORKLOADS[0].name;
    let a = child(first, 1, 1, true, false, false)?;
    let b = child(first, 1, 1, true, false, false)?;
    for name in EXACT {
        let (x, y) = (a.value(name), b.value(name));
        println!("{name:<36} {x:?} / {y:?}");
        if x.is_none() || x != y {
            violations.push(format!("{name}: not identical across two runs of one seed"));
        }
    }
    if violations.is_empty() {
        println!("repeat-check passed");
        Ok(())
    } else {
        Err(violations.join("; "))
    }
}

pub fn run(manifest_path: &str, mode: Mode) -> Result<(), String> {
    let manifest = load(manifest_path)?;
    match mode {
        Mode::Show => show(&manifest),
        Mode::Quick => quick(&manifest),
        Mode::RepeatCheck => repeat_check(&manifest),
    }
}
