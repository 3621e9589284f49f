//! Per-endpoint traffic statistics, including fault-injection counters.
//!
//! The numbers live in the host's counter table
//! ([`Endpoint::counters`](crate::Endpoint::counters)); [`StatsSnapshot`] is
//! a named-field view of that table's `fabric.*` traffic and fault rows,
//! which replay tests compare bit-for-bit.

use lci_trace::{Counter, Registry};

/// A point-in-time copy of an endpoint's traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Eager messages successfully injected.
    pub sends: u64,
    /// Payload bytes across eager messages.
    pub send_bytes: u64,
    /// RDMA puts successfully injected.
    pub puts: u64,
    /// Payload bytes across puts.
    pub put_bytes: u64,
    /// RDMA puts that landed in a region of *this* endpoint (the target's
    /// side of `puts`: a put that is stale, meets a crash or misses its
    /// region does not land).
    pub puts_landed: u64,
    /// Eager messages delivered to this endpoint.
    pub recvs: u64,
    /// Receiver-not-ready retries suffered by messages *sent by* this endpoint.
    pub rnr_retries: u64,
    /// Injection attempts rejected with `Backpressure`.
    pub backpressure: u64,
    /// Fatal delivery errors attributed to this endpoint.
    pub errors: u64,
    /// Deliveries *sent by* this endpoint delayed by a latency-spike fault.
    pub fault_delayed: u64,
    /// Deliveries *to* this endpoint held back by a reorder fault.
    pub fault_reordered: u64,
    /// Deliveries *to* this endpoint bounced by an RNR-storm fault
    /// (each bounce also counts in the sender's `rnr_retries`).
    pub fault_forced_rnr: u64,
    /// `Backpressure` rejections on this endpoint caused specifically by a
    /// brownout-shrunk injection depth (a subset of `backpressure`).
    pub fault_brownout_rejects: u64,
    /// Corrupted ghost copies delivered *to* this endpoint.
    pub fault_corrupted: u64,
    /// Duplicate ghost copies delivered *to* this endpoint.
    pub fault_duplicated: u64,
    /// Truncated ghost copies delivered *to* this endpoint.
    pub fault_truncated: u64,
    /// Deliveries *sent by* this endpoint eaten by a lossy-wire fault.
    pub fault_dropped: u64,
    /// Deliveries *sent by* this endpoint that vanished into a blackhole.
    pub fault_blackholed: u64,
    /// On the crashed host, its own crash-stop event (exactly 1 per crash);
    /// on survivors, deliveries they sent that were eaten by a peer's crash.
    pub fault_crashed: u64,
}

impl From<&Registry> for StatsSnapshot {
    fn from(r: &Registry) -> Self {
        StatsSnapshot {
            sends: r.get(Counter::FabricSends),
            send_bytes: r.get(Counter::FabricSendBytes),
            puts: r.get(Counter::FabricPuts),
            put_bytes: r.get(Counter::FabricPutBytes),
            puts_landed: r.get(Counter::FabricPutsLanded),
            recvs: r.get(Counter::FabricRecvs),
            rnr_retries: r.get(Counter::FabricRnrRetries),
            backpressure: r.get(Counter::FabricBackpressure),
            errors: r.get(Counter::FabricErrors),
            fault_delayed: r.get(Counter::FabricFaultDelayed),
            fault_reordered: r.get(Counter::FabricFaultReordered),
            fault_forced_rnr: r.get(Counter::FabricFaultForcedRnr),
            fault_brownout_rejects: r.get(Counter::FabricFaultBrownoutRejects),
            fault_corrupted: r.get(Counter::FabricFaultCorrupted),
            fault_duplicated: r.get(Counter::FabricFaultDuplicated),
            fault_truncated: r.get(Counter::FabricFaultTruncated),
            fault_dropped: r.get(Counter::FabricFaultDropped),
            fault_blackholed: r.get(Counter::FabricFaultBlackholed),
            fault_crashed: r.get(Counter::FabricFaultCrashed),
        }
    }
}

impl StatsSnapshot {
    /// Total messages injected (sends + puts).
    pub fn messages(&self) -> u64 {
        self.sends + self.puts
    }

    /// Total payload bytes injected.
    pub fn bytes(&self) -> u64 {
        self.send_bytes + self.put_bytes
    }

    /// Total fault-injection events observed at this endpoint.
    pub fn fault_events(&self) -> u64 {
        self.fault_delayed
            + self.fault_reordered
            + self.fault_forced_rnr
            + self.fault_brownout_rejects
            + self.fault_corrupted
            + self.fault_duplicated
            + self.fault_truncated
            + self.fault_dropped
            + self.fault_blackholed
            + self.fault_crashed
    }
}
