//! LCI runtime configuration.

/// How the rendezvous data transfer (`lc_put`) is performed.
///
/// The paper ports LCI across NIC APIs: on InfiniBand's ibverbs, `lc_put`
/// "maps directly to `ibv_post_send` ... `IBV_WR_RDMA_WRITE`"; on Omni-Path's
/// psm2 — which has no native RDMA write — it is implemented over the
/// tag-matching send path. Both are reproduced here; the `ablation_put_mode`
/// bench shows what native RDMA buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PutMode {
    /// Native RDMA write into the receiver's registered region (ibverbs RC).
    #[default]
    Rdma,
    /// Emulated over the eager send path: the payload is streamed as pooled
    /// fragment packets that the receiver reassembles (psm2-style).
    Emulated,
}

/// Configuration for a [`crate::Device`].
#[derive(Debug, Clone)]
pub struct LciConfig {
    /// Messages at or below this size use the eager (`EGR`) protocol; larger
    /// messages use rendezvous (`RTS`/`RTR`/RDMA). Must not exceed the
    /// packet payload size or the fabric's `max_payload`.
    pub eager_limit: usize,
    /// Number of packets in the pool. Bounds the injection rate: the paper
    /// recommends "a small constant times the number of hosts".
    pub packet_count: usize,
    /// Payload capacity of each pooled packet.
    pub packet_payload: usize,
    /// Must be positive and is otherwise unused: a host's packet pool is one
    /// free list, its host being the one thread that leases from it. Kept
    /// only because [`crate::PacketPool::new`] callers pass it.
    pub pool_shards: usize,
    /// Rendezvous data-transfer mechanism.
    pub put_mode: PutMode,
}

impl Default for LciConfig {
    fn default() -> Self {
        LciConfig {
            eager_limit: 8 << 10,
            packet_count: 256,
            packet_payload: 8 << 10,
            pool_shards: 8,
            put_mode: PutMode::Rdma,
        }
    }
}

impl LciConfig {
    /// Scale the packet count to the host count, as the paper suggests.
    pub fn for_hosts(num_hosts: usize) -> Self {
        LciConfig {
            packet_count: (num_hosts * 32).max(64),
            ..Default::default()
        }
    }

    /// Builder-style override of the eager limit.
    pub fn with_eager_limit(mut self, n: usize) -> Self {
        self.eager_limit = n;
        self
    }

    /// Builder-style override of the packet count.
    pub fn with_packet_count(mut self, n: usize) -> Self {
        self.packet_count = n;
        self
    }

    /// Builder-style override of the put mode.
    pub fn with_put_mode(mut self, m: PutMode) -> Self {
        self.put_mode = m;
        self
    }

    /// Validate internal consistency (eager limit fits in a packet).
    pub fn validate(&self) -> Result<(), String> {
        if self.eager_limit > self.packet_payload {
            return Err(format!(
                "eager_limit {} exceeds packet_payload {}",
                self.eager_limit, self.packet_payload
            ));
        }
        if self.packet_payload < 24 {
            return Err("packet_payload must hold at least a control payload (24 B)".into());
        }
        if self.packet_count == 0 || self.pool_shards == 0 {
            return Err("packet_count and pool_shards must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(LciConfig::default().validate().is_ok());
    }

    #[test]
    fn for_hosts_scales() {
        assert!(LciConfig::for_hosts(128).packet_count >= 128 * 32);
        assert!(LciConfig::for_hosts(1).packet_count >= 64);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = LciConfig::default().with_eager_limit(1 << 20);
        assert!(c.validate().is_err());
        let c = LciConfig {
            packet_payload: 8,
            eager_limit: 8,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = LciConfig {
            packet_count: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
