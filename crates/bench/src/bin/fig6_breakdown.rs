//! **Figure 6** — breakdown of execution time into computation and
//! non-overlapped communication (kron30 at 128 hosts in the paper).
//!
//! Methodology matches the paper: per-round computation time is the maximum
//! across hosts, summed over rounds; everything else is non-overlapped
//! communication. Under each row, one line per host says whose compute that
//! maximum was. Reproduction target: the compute component is roughly
//! equal across layers; the differences concentrate in communication, where
//! LCI is best or tied with MPI-RMA.
//!
//! Env knobs: `FIG6_GRAPH` (default kron13), `FIG6_HOSTS` (default 4),
//! `FIG6_FABRIC` (default stampede2).

use abelian::LayerKind;
use lci_bench::{
    emit, env_str, env_usize, fabric_by_name, fmt_dur, graph_by_name, host_totals, partition_for,
    AppKind, Scenario,
};
use lci_trace::Counter;

fn main() {
    let gname = env_str("FIG6_GRAPH", "kron13");
    let hosts = env_usize("FIG6_HOSTS", 4);
    let fabric = env_str("FIG6_FABRIC", "stampede2");
    let g = graph_by_name(&gname);
    let parts = partition_for(&g, hosts, "abelian");

    println!("# Figure 6 reproduction: compute vs non-overlapped comm, {gname} @ {hosts} hosts");
    println!(
        "{:<9} {:<10} | {:>12} {:>12} | {:>8}",
        "app", "layer", "compute", "comm", "comm%"
    );
    println!("{}", "-".repeat(62));

    let mut report = lci_trace::BenchReport::new("fig6");
    report.config = vec![
        ("graph".into(), gname.clone()),
        ("hosts".into(), hosts.to_string()),
        ("fabric".into(), fabric.clone()),
    ];
    let section = emit::TraceSection::begin();

    for app in AppKind::all() {
        for kind in LayerKind::all() {
            let mut sc = Scenario::new(&parts, kind);
            sc.fabric = fabric_by_name(&fabric, hosts);
            // Per-scenario phase breakdown straight from the trace spans
            // (summed across host threads), not wall-clock subtraction.
            let run = emit::TraceSection::begin();
            let t = sc.run_abelian(app);
            let delta = run.end();
            let total = t.compute + t.comm;
            println!(
                "{:<9} {:<10} | {:>12} {:>12} | {:>7.1}%",
                app.name(),
                kind.name(),
                fmt_dur(t.compute),
                fmt_dur(t.comm),
                100.0 * t.comm.as_secs_f64() / total.as_secs_f64().max(1e-12)
            );
            print!("{}", host_totals(&t.hosts));
            let prefix = format!("{}_{}", app.name(), kind.name());
            for (phase, counter) in [
                ("compute", Counter::PhaseComputeNs),
                ("reduce", Counter::PhaseReduceNs),
                ("broadcast", Counter::PhaseBroadcastNs),
                // `phase.control_ns` kept its name when the control exchange
                // went: it times the top-of-round boundary pass (fire list +
                // termination vote), local work outside the comm span.
                ("boundary", Counter::PhaseControlNs),
            ] {
                emit::push_info(
                    &mut report,
                    &format!("{prefix}_{phase}_ns"),
                    "ns",
                    delta.get(counter) as f64,
                );
            }
        }
        println!();
    }
    emit::attach_trace(&mut report, &section.end());
    emit::write(&report);
}
