//! The communication server: a dedicated progress thread per device.
//!
//! The paper's design dedicates one thread per host to network progress
//! (`lc_progress` "can take longer since it typically requires draining the
//! network driver... hence, it is only executed by the communication
//! thread"). Compute threads never poll the network; they only read request
//! status flags.

use crate::device::Device;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Handle to a running communication-server thread. Stops (and joins) on
/// drop or via [`CommServer::stop`].
pub struct CommServer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CommServer {
    /// Spawn a server that repeatedly calls [`Device::progress`].
    pub fn spawn(device: Device) -> CommServer {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("lci-server-{}", device.rank()))
            .spawn(move || {
                // This thread is the progress: nothing it waits for comes
                // unless it polls, so an empty poll yields the core to the
                // threads sharing it instead of sleeping.
                while !flag.load(Ordering::Acquire) {
                    if device.progress() == 0 {
                        std::thread::yield_now();
                    }
                }
            })
            .expect("spawn comm server");
        CommServer {
            stop,
            handle: Some(handle),
        }
    }

    /// Request the server to stop and wait for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CommServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LciConfig;
    use lci_fabric::{Fabric, FabricConfig};

    #[test]
    fn server_starts_and_stops() {
        let fabric = Fabric::new(FabricConfig::test(1));
        let dev = Device::new(fabric.endpoint(0), LciConfig::default());
        let server = CommServer::spawn(dev);
        std::thread::sleep(std::time::Duration::from_millis(10));
        server.stop();
    }

    #[test]
    fn server_stops_on_drop() {
        let fabric = Fabric::new(FabricConfig::test(1));
        let dev = Device::new(fabric.endpoint(0), LciConfig::default());
        let _server = CommServer::spawn(dev);
        // Dropping at scope end must join without hanging.
    }
}
