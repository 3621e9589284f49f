//! Convenience bootstrap: a fabric plus one device per simulated host.

use crate::config::LciConfig;
use crate::device::Device;
use lci_fabric::{Fabric, FabricConfig};

/// A fully wired simulated cluster running LCI on every host. Nothing moves
/// until a host calls [`Device::progress`]: whoever waits on a device drives
/// it.
pub struct LciWorld {
    fabric: Fabric,
    devices: Vec<Device>,
}

impl LciWorld {
    /// Build the fabric and one device per host.
    pub fn new(fabric_cfg: FabricConfig, lci_cfg: LciConfig) -> LciWorld {
        let fabric = Fabric::new(fabric_cfg);
        let devices = (0..fabric.num_hosts())
            .map(|h| Device::new(fabric.endpoint(h), lci_cfg.clone()))
            .collect();
        LciWorld { fabric, devices }
    }

    /// The device for rank `host`.
    pub fn device(&self, host: usize) -> Device {
        self.devices[host].clone()
    }

    /// All devices, rank order.
    pub fn devices(&self) -> Vec<Device> {
        self.devices.clone()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.devices.len()
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_n_devices() {
        let w = LciWorld::new(FabricConfig::test(3), LciConfig::for_hosts(3));
        assert_eq!(w.num_hosts(), 3);
        assert_eq!(w.device(2).rank(), 2);
        assert_eq!(w.devices().len(), 3);
    }

    #[test]
    fn manual_world_has_no_servers() {
        // Every world is manual: no thread drives progress, and dropping it
        // needs no shutdown.
        let w = LciWorld::new(FabricConfig::test(2), LciConfig::default());
        assert_eq!(w.num_hosts(), 2);
        drop(w);
    }
}
