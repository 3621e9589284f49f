//! The three communication-layer implementations compared in the paper.

mod lci_layer;
mod probe_layer;
mod rma_layer;

pub use lci_layer::LciLayer;
pub use probe_layer::MpiProbeLayer;
pub use rma_layer::MpiRmaLayer;

use crate::comm::CommLayer;
use std::sync::Arc;

/// Which communication layer to use (sweep axis in the benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// The paper's contribution.
    Lci,
    /// Two-sided MPI with `MPI_Iprobe` (the baseline).
    MpiProbe,
    /// One-sided MPI with PSCW windows (the lower-bound attempt).
    MpiRma,
}

impl LayerKind {
    /// All kinds, sweep order.
    pub fn all() -> [LayerKind; 3] {
        [LayerKind::Lci, LayerKind::MpiProbe, LayerKind::MpiRma]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            LayerKind::Lci => "lci",
            LayerKind::MpiProbe => "mpi-probe",
            LayerKind::MpiRma => "mpi-rma",
        }
    }
}

/// Build one layer per host of the given kind over a fresh fabric.
///
/// Returns the layers in rank order. The caller keeps the returned guard
/// alive for the duration of the run (it owns the fabric / worlds).
pub fn build_layers(
    kind: LayerKind,
    fabric_cfg: lci_fabric::FabricConfig,
    mpi_cfg: mini_mpi::MpiConfig,
    lci_cfg: lci::LciConfig,
) -> (Vec<Arc<dyn CommLayer>>, LayerWorld) {
    let world = LayerWorld::new(kind, fabric_cfg, mpi_cfg, lci_cfg);
    (world.layers(kind), world)
}

/// Keep-alive guard for the world behind a set of layers.
pub enum LayerWorld {
    /// LCI world (fabric + devices).
    Lci(lci::LciWorld),
    /// mini-mpi world (fabric + communicators).
    Mpi(mini_mpi::MpiWorld),
}

impl LayerWorld {
    /// The world `kind`'s layers run on, over a fresh fabric.
    pub(crate) fn new(
        kind: LayerKind,
        fabric_cfg: lci_fabric::FabricConfig,
        mpi_cfg: mini_mpi::MpiConfig,
        lci_cfg: lci::LciConfig,
    ) -> LayerWorld {
        match kind {
            LayerKind::Lci => LayerWorld::Lci(lci::LciWorld::without_servers(fabric_cfg, lci_cfg)),
            LayerKind::MpiProbe | LayerKind::MpiRma => {
                LayerWorld::Mpi(mini_mpi::MpiWorld::new(fabric_cfg, mpi_cfg))
            }
        }
    }

    /// Mint fresh layers of `kind` (rank order) over this world's transport
    /// endpoints. `kind` must be the one the world was built for.
    pub(crate) fn layers(&self, kind: LayerKind) -> Vec<Arc<dyn CommLayer>> {
        use {LayerKind as K, LayerWorld as W};
        let mint = |h: usize| -> Arc<dyn CommLayer> {
            match (kind, self) {
                (K::Lci, W::Lci(w)) => Arc::new(LciLayer::new(w.device(h))),
                (K::MpiProbe, W::Mpi(w)) => Arc::new(MpiProbeLayer::new(w.comm(h))),
                (K::MpiRma, W::Mpi(w)) => Arc::new(MpiRmaLayer::new(w.comm(h))),
                _ => unreachable!("world kind fixed at construction"),
            }
        };
        (0..self.fabric().num_hosts()).map(mint).collect()
    }

    /// The underlying fabric (fault plans, crash inspection, counters).
    pub fn fabric(&self) -> &lci_fabric::Fabric {
        match self {
            LayerWorld::Lci(w) => w.fabric(),
            LayerWorld::Mpi(w) => w.fabric(),
        }
    }
}
