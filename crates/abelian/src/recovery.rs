//! Crash-stop recovery: detect, roll back, respawn, resume.
//!
//! The protocol (DESIGN.md "crash-stop threat model & recovery protocol"):
//!
//! 1. **Detect.** A crashed host's wire presence vanishes; survivors'
//!    retransmission budgets exhaust against the silence and every host's
//!    run aborts bounded with an error (the PR-4 guarantee, unchanged).
//! 2. **Probe.** Each survivor seals one empty frame per peer under the
//!    dying incarnation's epoch, so the discarded incarnation leaves
//!    deterministic `fabric.epoch.stale_dropped` evidence behind.
//! 3. **Respawn.** [`Fabric::respawn`] restores the crashed host under a
//!    bumped incarnation epoch; its registered memory regions are gone
//!    (a real process restart invalidates every pinned RDMA region).
//! 4. **Rejoin.** Every host — survivors included — resets its transport
//!    state: sequence spaces, send windows, dedup gates, queued protocol
//!    state of the dead incarnation. Straggler frames of the old epoch are
//!    dropped by the reliable layer's epoch gate wherever they surface.
//! 5. **Resume.** The run restarts from the newest checkpoint present on
//!    *every* host ([`CheckpointStore::latest_common`]); the engines'
//!    confluent reductions make the re-executed fixpoint bit-identical to
//!    a crash-free run.
//!
//! [`RecoveryWorld`] owns the long-lived transport (fabric + devices or
//! communicators) across attempts and mints fresh [`CommLayer`]s per
//! attempt, and runs the retry loop ([`RecoveryWorld::run_recoverable`]) that
//! both engines' `*_recoverable` entry points wrap.

use crate::checkpoint::{CheckpointStore, CkptPlan};
use crate::comm::CommLayer;
use crate::engine::{run_app_with_ckpt, EngineConfig, RunResult};
use crate::layers::{LayerKind, LayerWorld};
use crate::apps::App;
use lci_fabric::{Fabric, FabricConfig};
use mini_mpi::MpiConfig;
use std::sync::Arc;

/// Recovery policy knobs.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Checkpoint every `ckpt_every` rounds (0 disables saves — a crash is
    /// then recovered by full re-execution from the initial state).
    pub ckpt_every: u64,
    /// Give up after this many run attempts (first attempt included).
    pub max_attempts: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            ckpt_every: 4,
            max_attempts: 4,
        }
    }
}

/// The long-lived half of a recoverable run: fabric plus per-host transport
/// endpoints that survive across attempts, able to mint fresh communication
/// layers after each [`RecoveryWorld::recover`].
pub struct RecoveryWorld {
    kind: LayerKind,
    world: LayerWorld,
    mpi_cfg: MpiConfig,
}

impl RecoveryWorld {
    /// Build the world for `kind` over a fresh wall-clock (poll-driven)
    /// fabric.
    pub fn new(
        kind: LayerKind,
        fabric_cfg: FabricConfig,
        mpi_cfg: MpiConfig,
        lci_cfg: lci::LciConfig,
    ) -> RecoveryWorld {
        RecoveryWorld {
            kind,
            world: LayerWorld::new(kind, fabric_cfg, mpi_cfg.clone(), lci_cfg),
            mpi_cfg,
        }
    }

    /// The underlying fabric (fault plans, crash inspection, counters).
    pub fn fabric(&self) -> &Fabric {
        self.world.fabric()
    }

    /// Mint fresh communication layers (rank order) for one run attempt.
    ///
    /// Layer-level state — channel registrations, per-channel round
    /// counters — must start from zero on every attempt so that all hosts
    /// tag their frames identically after a rollback; the transport
    /// underneath persists.
    pub fn layers(&self) -> Vec<Arc<dyn CommLayer>> {
        self.world.layers(self.kind)
    }

    /// Steps 2–4 of the recovery protocol: probe the dying epoch, respawn
    /// every crashed host, and rejoin all transport endpoints under the new
    /// incarnation. Call after an attempt aborted with crashes present.
    pub fn recover(&mut self) {
        let crashed = self.fabric().crashed_hosts();
        // Probe first, under the old epoch: one empty frame from each
        // survivor to each peer. Probes toward the crashed host are eaten
        // at the wire; survivor→survivor probes surface post-respawn as
        // stale-epoch drops — deterministic evidence the old incarnation
        // was discarded rather than replayed.
        for h in (0..self.fabric().num_hosts()).filter(|&h| !crashed.contains(&(h as u16))) {
            match &self.world {
                LayerWorld::Lci(w) => w.device(h).flush_epoch_probe(),
                LayerWorld::Mpi(w) => w.comm(h).flush_epoch_probe(),
            }
        }
        for &h in &crashed {
            self.fabric().respawn(h);
        }
        match &mut self.world {
            LayerWorld::Lci(w) => {
                for h in 0..w.num_hosts() {
                    w.device(h).rejoin();
                }
            }
            LayerWorld::Mpi(w) => w.rejoin(self.mpi_cfg.clone()),
        }
    }

    /// The crash-recovery driver loop, shared by every engine: run `attempt`
    /// on fresh layers with a plan checkpointing into `store` every
    /// `rec.ckpt_every` rounds; on an abort with crashed hosts present,
    /// recover the world, roll every host back to the newest common
    /// checkpoint, and retry — up to `rec.max_attempts` attempts. An abort
    /// with *no* crashed host (a genuine transport failure) is returned
    /// as-is: recovery never masks errors it cannot explain.
    pub fn run_recoverable<R>(
        &mut self,
        rec: &RecoveryConfig,
        store: &Arc<CheckpointStore>,
        mut attempt: impl FnMut(&[Arc<dyn CommLayer>], &CkptPlan) -> Result<R, String>,
    ) -> Result<R, String> {
        let mut plan = CkptPlan::saving(Arc::clone(store), rec.ckpt_every);
        let mut last_err = String::new();
        for _attempt in 0..rec.max_attempts.max(1) {
            let layers = self.layers();
            match attempt(&layers, &plan) {
                Ok(r) => return Ok(r),
                // Not a crash: the bounded-abort contract of plain runs.
                Err(e) if self.fabric().crashed_hosts().is_empty() => return Err(e),
                Err(e) => last_err = e,
            }
            self.recover();
            plan.resume_from = store.latest_common();
        }
        Err(format!(
            "recovery abandoned after {} attempts; last error: {last_err}",
            rec.max_attempts.max(1)
        ))
    }
}

/// Run an abelian app with crash recovery (see
/// [`RecoveryWorld::run_recoverable`]).
///
/// The caller owns `store` so it can inspect saved rounds afterwards; pass
/// a fresh [`CheckpointStore::new`] sized to the partition count.
pub fn run_app_recoverable<A: App>(
    parts: &lci_graph::Partitioning,
    app: Arc<A>,
    rw: &mut RecoveryWorld,
    cfg: &EngineConfig,
    rec: &RecoveryConfig,
    store: &Arc<CheckpointStore>,
) -> Result<RunResult<A::Acc>, String> {
    rw.run_recoverable(rec, store, |layers, plan| {
        run_app_with_ckpt(parts, Arc::clone(&app), layers, cfg, Some(plan))
    })
}
