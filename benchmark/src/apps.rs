//! Graph-application workloads: inputs from a seed, one engine run on
//! fresh communication layers, and the check against the sequential
//! reference.

use crate::stats::PIECES;
use abelian::apps::{reference, App, Bfs, PageRank};
use abelian::{
    build_layers, run_app_with_ckpt, CkptPlan, CommLayer, EngineConfig, LayerKind, LayerWorld,
    RunResult,
};
use gemini::{run_gemini_checked, GeminiConfig};
use lci_fabric::{FabricConfig, ReliableConfig};
use lci_graph::{gen, partition, CsrGraph, Partitioning, Policy, Vid};
use lci_trace::Counter;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated hosts in every workload: the sandbox has two cores, and each
/// host is one thread.
pub const HOSTS: usize = 2;

const RMAT_SCALE: u32 = 17;
const RMAT_EDGE_FACTOR: usize = 16;
const CHAIN_LEN: usize = 4000;

/// Retransmissions of one frame before its destination is declared dead:
/// about 2 s of patience in place of the default 12 (about 70 ms). Two host
/// threads and the wire thread share the sandbox's two cores, so a thread
/// that owes an ack can be off the processor for longer than the default
/// allows: with it, one Bfs repetition in about 2 000 aborted with "peer
/// unreachable" on a loss-free fabric (and with a budget of 3 or 5, one in
/// 40). A peer that is in fact unreachable still fails the repetition, after
/// 2 s.
const RETRY_BUDGET: u32 = 256;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    Abelian,
    Gemini,
}

impl Engine {
    /// Abelian runs its advanced vertex-cut, Gemini the only policy it has.
    fn policy(self) -> Policy {
        match self {
            Engine::Abelian => Policy::VertexCutCartesian,
            Engine::Gemini => Policy::EdgeCutBlocked,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Problem {
    /// PageRank on `rmat(17, 16, seed)`.
    PagerankRmat,
    /// Bfs along a 4000-vertex chain whose ids are a seeded permutation, so
    /// every hop lands on a random host.
    BfsChain,
}

/// What a correct run must produce.
enum Expect {
    Ranks(Vec<f32>),
    Levels { source: Vid, levels: Vec<u32> },
}

/// A workload's inputs, built once per run from the seed.
pub struct Inputs {
    engine: Engine,
    seed: u64,
    parts: Partitioning,
    expect: Expect,
    pub gen_s: f64,
    pub partition_s: f64,
}

fn build_graph(problem: Problem, seed: u64) -> (CsrGraph, Option<Vid>) {
    match problem {
        Problem::PagerankRmat => (gen::rmat(RMAT_SCALE, RMAT_EDGE_FACTOR, seed), None),
        Problem::BfsChain => {
            let mut ids: Vec<Vid> = (0..CHAIN_LEN as Vid).collect();
            ids.shuffle(&mut SmallRng::seed_from_u64(seed));
            let edges: Vec<(Vid, Vid)> = ids.windows(2).map(|w| (w[0], w[1])).collect();
            (CsrGraph::from_edges(CHAIN_LEN, &edges), Some(ids[0]))
        }
    }
}

impl Inputs {
    pub fn build(problem: Problem, engine: Engine, seed: u64) -> Inputs {
        let t0 = Instant::now();
        let (graph, source) = build_graph(problem, seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let parts = partition(&graph, HOSTS, engine.policy());
        let partition_s = t0.elapsed().as_secs_f64();
        let expect = match source {
            None => {
                let pr = PageRank::default();
                Expect::Ranks(reference::pagerank(
                    &graph,
                    pr.alpha,
                    pr.tolerance,
                    pr.max_iters,
                ))
            }
            Some(source) => Expect::Levels {
                source,
                levels: reference::bfs(&graph, source),
            },
        };
        Inputs {
            engine,
            seed,
            parts,
            expect,
            gen_s,
            partition_s,
        }
    }
}

/// One engine run, as the public API reports it.
pub struct AppRun {
    pub wall: Duration,
    /// `wall` in consecutive pieces, in seconds: first what lies outside the
    /// rounds (host threads started and joined), then the rounds as host 0
    /// timed them, in at most [`PIECES`] groups of equally many. The same
    /// inputs give the same rounds, so piece `k` is the same work in every
    /// repetition.
    pub pieces: Vec<f64>,
    pub rounds: usize,
    /// Per-round maxima across hosts, summed (the paper's Fig. 6 rule).
    pub compute: Duration,
    pub comm: Duration,
    pub sent_entries: u64,
    pub mem_peak: u64,
    /// `lci::DeviceStats` summed over hosts (zero on the MPI layers).
    pub egr_sent: u64,
    pub rdv_opened: u64,
    /// Bytes the endpoints put on the wire as eager sends, headers included.
    pub wire_send_bytes: u64,
    /// Frames the reliable layer sent again. The fabric loses nothing here,
    /// so each is an ack that took longer than the retransmission timeout.
    pub retransmits: u64,
}

/// Layer variations the per-layer suite sweeps; the end-to-end workloads
/// use the default (LCI, no checkpoints).
#[derive(Clone, Copy)]
pub struct Variant {
    pub layer: LayerKind,
    /// Save a coordinated checkpoint every this many rounds (Abelian only).
    pub ckpt_every: Option<u64>,
}

impl Default for Variant {
    fn default() -> Self {
        Variant {
            layer: LayerKind::Lci,
            ckpt_every: None,
        }
    }
}

/// Fresh layers over a fresh threaded fabric, as every repetition uses.
pub fn layers(kind: LayerKind, seed: u64) -> (Vec<Arc<dyn CommLayer>>, LayerWorld) {
    build_layers(
        kind,
        FabricConfig::test(HOSTS)
            .with_seed(seed)
            .with_reliable(ReliableConfig::default().with_retry_budget(RETRY_BUDGET)),
        mini_mpi::MpiConfig::default(),
        lci::LciConfig::for_hosts(HOSTS),
    )
}

fn ranks_match(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-3 * (1.0 + w.abs()))
}

/// What every app's run yields once its values have been checked.
struct Checked {
    wall: Duration,
    rounds: usize,
    hosts: Vec<abelian::HostMetrics>,
}

impl Inputs {
    /// Construct and tear down one world (the part of set-up that is not
    /// input generation).
    pub fn build_world(&self) {
        drop(layers(LayerKind::Lci, self.seed));
    }

    /// Time one engine run of `app` and check its values with `correct`.
    fn run_checked<A: App>(
        &self,
        app: A,
        layers: &[Arc<dyn CommLayer>],
        ckpt: Option<&CkptPlan>,
        correct: impl FnOnce(&[A::Acc]) -> bool,
    ) -> Result<Checked, String> {
        let app = Arc::new(app);
        let t0 = Instant::now();
        let run: RunResult<A::Acc> = match self.engine {
            Engine::Abelian => {
                run_app_with_ckpt(&self.parts, app, layers, &EngineConfig::default(), ckpt)
            }
            Engine::Gemini => {
                run_gemini_checked(&self.parts, app, layers, &GeminiConfig::default())
            }
        }?;
        let wall = t0.elapsed();
        if !correct(&run.values) {
            return Err(format!(
                "{:?} result differs from the sequential reference",
                self.engine
            ));
        }
        Ok(Checked {
            wall,
            rounds: run.rounds,
            hosts: run.hosts.into_iter().map(|h| h.metrics).collect(),
        })
    }

    /// Build fresh layers, run the engine to solution, check the result.
    /// `Err` is a failed repetition: the engine aborted or the values differ
    /// from the sequential reference.
    pub fn run(&self, variant: Variant) -> Result<AppRun, String> {
        let (layers, world) = layers(variant.layer, self.seed);
        let plan = variant
            .ckpt_every
            .map(|every| CkptPlan::saving(abelian::CheckpointStore::new(HOSTS), every));
        let plan = plan.as_ref();
        let before = lci_trace::global().snapshot();
        let Checked {
            wall,
            rounds,
            hosts,
        } = match &self.expect {
            Expect::Ranks(want) => self.run_checked(PageRank::default(), &layers, plan, |got| {
                ranks_match(got, want)
            }),
            Expect::Levels { source, levels } => {
                self.run_checked(Bfs { source: *source }, &layers, plan, |got| got == levels)
            }
        }?;
        let (compute, comm) = abelian::metrics::aggregate_breakdown(&hosts);
        let round_s: Vec<f64> = hosts[0]
            .rounds
            .iter()
            .map(|r| (r.compute + r.comm).as_secs_f64())
            .collect();
        let outside = (wall.as_secs_f64() - round_s.iter().sum::<f64>()).max(0.0);
        let pieces = std::iter::once(outside)
            .chain(
                round_s
                    .chunks(round_s.len().div_ceil(PIECES).max(1))
                    .map(|group| group.iter().sum()),
            )
            .collect();
        let (mut egr_sent, mut rdv_opened, mut wire_send_bytes) = (0, 0, 0);
        let endpoints = match &world {
            LayerWorld::Lci(w) => {
                for d in w.devices() {
                    egr_sent += d.stats().egr_sent;
                    rdv_opened += d.stats().rdv_opened;
                }
                w.fabric().endpoints()
            }
            LayerWorld::Mpi(w) => w.fabric().endpoints(),
        };
        for ep in endpoints {
            wire_send_bytes += ep.stats().send_bytes;
        }
        Ok(AppRun {
            wall,
            pieces,
            rounds,
            compute,
            comm,
            sent_entries: hosts
                .iter()
                .flat_map(|h| &h.rounds)
                .map(|r| r.sent_entries)
                .sum(),
            mem_peak: hosts.iter().map(|h| h.mem_peak).max().unwrap_or(0),
            egr_sent,
            rdv_opened,
            wire_send_bytes,
            retransmits: lci_trace::global()
                .snapshot()
                .delta(&before)
                .get(Counter::FabricReliableRetransmits),
        })
    }
}
