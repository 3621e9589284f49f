//! `bench_pins <results/BENCH_pr<N>.json>` — the exact gate on the repo
//! benchmark's seed-pure rows (tier 1 of `run_tests.sh`).
//!
//! Reads the output of `bash benchmark/run.sh --workload stream_small --seed 1
//! --seconds 1 --trace 1` on stdin (its last line is the result JSON) and
//! fails on any difference from the `traced` suite of the pinned file in the
//! rows below. They count bytes, packets, virtual-clock time and protocol
//! events on the manual fabric, so they are functions of the seed and the
//! code, not of the machine: a difference is a behaviour change. An intended
//! one is re-pinned by checking in the next `results/BENCH_pr<N>.json`
//! (`scripts/bench_record.sh <N>`).

use lci_trace::json::Json;

const PINS: [&str; 10] = [
    "fabric.wire_bytes_per_msg.64b",
    "fabric.packets_per_msg.64b",
    "fabric.sim_us_per_msg.64b",
    "fabric.sim_us_per_msg.4k",
    "fabric.retransmits_per_kmsg",
    "lci.enq_rejected_per_kmsg",
    "abelian.sent_entries.pagerank_rmat",
    "abelian.rdv_opened.pagerank_rmat",
    "abelian.membook_peak_bytes.pagerank_rmat",
    "gemini.egr_sent.pagerank_rmat",
];

fn die(why: String) -> ! {
    eprintln!("bench pins: {why}");
    std::process::exit(2)
}

fn value(doc: Option<&Json>, row: &str) -> Option<f64> {
    doc?.get("metrics")?.get(row)?.get("value")?.as_f64()
}

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        die("usage: benchmark/run.sh ... --trace 1 | bench_pins results/BENCH_pr<N>.json".into())
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| die(format!("{path}: {e}")));
    let pinned = Json::parse(&text).unwrap_or_else(|e| die(format!("{path}: {e}")));
    let out = std::io::read_to_string(std::io::stdin()).expect("benchmark output on stdin");
    let fresh = Json::parse(out.lines().last().unwrap_or_default())
        .unwrap_or_else(|e| die(format!("no result line on stdin: {e}")));
    let mut differ = 0;
    for row in PINS {
        let (want, got) = (value(pinned.get("traced"), row), value(Some(&fresh), row));
        if want.is_none() || want != got {
            eprintln!("PIN {row}: {path} has {want:?}, this tree measures {got:?}");
            differ += 1;
        }
    }
    if differ > 0 {
        eprintln!("bench pins: {differ} seed-pure row(s) differ from {path}");
        std::process::exit(1);
    }
    println!("bench pins: OK, every seed-pure row equals {path}");
}
