//! # abelian — a BSP vertex-program engine with pluggable communication
//!
//! A reproduction of the Abelian (distributed Galois / D-Galois) runtime as
//! the LCI paper describes it (§II–III): vertex programs execute in bulk-
//! synchronous rounds over a partitioned graph with master/mirror proxies;
//! each round's communication phase follows the gather-communicate-scatter
//! pattern, synchronizing proxies with *reduce* (mirrors → master) and,
//! when the partitioning requires it, *broadcast* (master → mirrors). The
//! runtime is partition-aware: it picks the needed patterns from the policy
//! and ships only updated labels with compact positional metadata.
//!
//! Communication is pluggable behind [`comm::CommLayer`], with the paper's
//! three implementations in [`layers`]: LCI, MPI-Probe, and MPI-RMA.

#![warn(missing_docs)]

pub mod apps;
pub mod checkpoint;
pub mod comm;
pub mod engine;
pub mod label;
pub mod layers;
pub mod membook;
pub mod metrics;
pub mod recovery;

pub use checkpoint::{CheckpointStore, CkptPlan, Snapshot};
pub use comm::{ChannelSpec, CommLayer};
pub use engine::{
    run_app, run_app_checked, run_app_with_ckpt, EngineConfig, HostResult, RunResult,
};
pub use recovery::{run_app_recoverable, RecoveryConfig, RecoveryWorld};
pub use label::{Label, LabelVec};
pub use layers::{build_layers, LayerKind, LayerWorld};
pub use membook::MemBook;
pub use metrics::{HostMetrics, RoundMetrics};
