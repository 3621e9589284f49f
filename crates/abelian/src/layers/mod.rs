//! The three communication-layer implementations compared in the paper.

mod lci_layer;
mod probe_layer;
mod rma_layer;

pub use lci_layer::LciLayer;
pub use probe_layer::MpiProbeLayer;
pub use rma_layer::MpiRmaLayer;

use crate::comm::CommLayer;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Messages that arrived for a (channel, round) tag not yet being consumed,
/// as `(source, payload)` in arrival order (the two tagged layers).
type Stash = HashMap<u32, VecDeque<(u16, Vec<u8>)>>;

/// Take the oldest message stashed under `tag`. A round's queue is dropped
/// with its last message, so a stash holds live rounds only.
fn stash_pop(stash: &mut Stash, tag: u32) -> Option<(u16, Vec<u8>)> {
    let Entry::Occupied(mut q) = stash.entry(tag) else {
        return None;
    };
    let msg = q.get_mut().pop_front();
    if q.get().is_empty() {
        q.remove();
    }
    msg
}

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

#[cfg(test)]
mod tests {
    use crate::comm::{channels, exchange_all, CommLayer};

    /// 1 000 rounds on two channels between two ranks (5-byte payloads, so
    /// the probe layer's aggregate path carries them); afterwards
    /// `stash_len` must be 0 on both: no queue outlives its round.
    pub(super) fn stash_keeps_no_queue_for_a_finished_round<L: CommLayer>(
        layers: [L; 2],
        stash_len: impl Fn(&L) -> usize,
    ) {
        std::thread::scope(|s| {
            for l in &layers {
                s.spawn(move || {
                    for round in 0..1_000u16 {
                        for ch in [channels::REDUCE, channels::BROADCAST] {
                            let msg = [round.to_le_bytes().as_slice(), &[ch as u8]].concat();
                            let got = exchange_all(l, ch, vec![msg.clone(); 2]);
                            assert_eq!(got, vec![(1 - l.rank(), msg)]);
                        }
                    }
                });
            }
        });
        for l in &layers {
            assert_eq!(stash_len(l), 0, "rank {}: dead queues left in the stash", l.rank());
        }
    }
}
