//! Bootstrap: a fabric plus one communicator per simulated host.

use crate::p2p::{MpiComm, MpiConfig};
use crate::rma::WinRegistry;
use lci_fabric::{Fabric, FabricConfig};

/// A fully wired simulated cluster running mini-mpi on every host.
pub struct MpiWorld {
    fabric: Fabric,
    comms: Vec<MpiComm>,
}

impl MpiWorld {
    /// Build a world of `fabric_cfg.num_hosts` communicators.
    pub fn new(fabric_cfg: FabricConfig, mpi_cfg: MpiConfig) -> MpiWorld {
        let fabric = Fabric::new(fabric_cfg);
        let registry = WinRegistry::new();
        let comms = (0..fabric.num_hosts())
            .map(|h| MpiComm::new(fabric.endpoint(h), mpi_cfg.clone(), registry.clone()))
            .collect();
        MpiWorld { fabric, comms }
    }

    /// Like [`MpiWorld::new`] but over a manual (virtual-clock) fabric:
    /// polling moves nothing, and the caller advances simulated time with
    /// [`Fabric::step`]/[`Fabric::drain`] via [`MpiWorld::fabric`]. This is
    /// how deterministic tests drive mini-mpi without wall-clock timing.
    pub fn new_manual(fabric_cfg: FabricConfig, mpi_cfg: MpiConfig) -> MpiWorld {
        let fabric = Fabric::new_manual(fabric_cfg);
        let registry = WinRegistry::new();
        let comms = (0..fabric.num_hosts())
            .map(|h| MpiComm::new(fabric.endpoint(h), mpi_cfg.clone(), registry.clone()))
            .collect();
        MpiWorld { fabric, comms }
    }

    /// The communicator for rank `host`.
    pub fn comm(&self, host: usize) -> MpiComm {
        self.comms[host].clone()
    }

    /// All communicators, rank order.
    pub fn comms(&self) -> Vec<MpiComm> {
        self.comms.clone()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.comms.len()
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Open a new communicator epoch after a crashed host was brought back
    /// with [`Fabric::respawn`]: every rank gets a fresh communicator over
    /// a fresh window registry, discarding all matching state, reorder
    /// stages, sequence counters, and windows of the dead incarnation.
    ///
    /// This is mini-mpi's whole-world analogue of `MPI_Comm_revoke` +
    /// `MPI_Comm_shrink` + re-spawn in ULFM: recovery re-executes every
    /// round past the last checkpoint, so nothing in the old communicators
    /// is worth salvaging. Previously returned [`MpiComm`] clones (and
    /// windows created through them) must not be used again; in-flight
    /// frames of the old incarnation are dropped by the reliable layer's
    /// epoch gate wherever they land.
    pub fn rejoin(&mut self, mpi_cfg: MpiConfig) {
        let registry = WinRegistry::new();
        self.comms = (0..self.fabric.num_hosts())
            .map(|h| MpiComm::new(self.fabric.endpoint(h), mpi_cfg.clone(), registry.clone()))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds() {
        let w = MpiWorld::new(FabricConfig::test(3), MpiConfig::default());
        assert_eq!(w.num_hosts(), 3);
        assert_eq!(w.comm(1).rank(), 1);
        assert_eq!(w.comms().len(), 3);
    }
}
