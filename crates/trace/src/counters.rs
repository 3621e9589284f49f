//! Typed counter registry.
//!
//! Every counter the runtime exposes lives in a fixed-size table indexed by
//! the [`Counter`] enum: one per simulated host, and the process-wide one
//! whose reads sum the host tables in. The hot path is one relaxed
//! `fetch_add` on a cache-line-padded `AtomicU64` that only the host's own
//! threads write — no allocation, no locking, no hashing, no line shared
//! between hosts. Readers take [`CounterSnapshot`]s and diff them, which is
//! how the bench harness turns a run into counter deltas.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Measurement unit of a counter, carried into reports so tooling can
/// label axes without a side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Plain event count.
    Count,
    /// Bytes moved.
    Bytes,
    /// Accumulated nanoseconds.
    Nanos,
    /// Microsecond gauge: last-written value, not an accumulation.
    Micros,
}

impl Unit {
    /// Stable lowercase name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Bytes => "bytes",
            Unit::Nanos => "ns",
            Unit::Micros => "us",
        }
    }

    /// Gauges hold a last-written value rather than an accumulated sum, so
    /// snapshot *deltas* of a gauge are meaningless (and excluded from
    /// replay-equality checks alongside wall-clock units).
    pub fn is_gauge(self) -> bool {
        matches!(self, Unit::Micros)
    }
}

macro_rules! counters {
    ($(($variant:ident, $name:literal, $unit:ident)),+ $(,)?) => {
        /// Every counter in the runtime, with a fixed dense ID.
        ///
        /// IDs are stable within a build (they are array indices into the
        /// global registry); the *names* are the stable external contract.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u16)]
        pub enum Counter {
            $(
                #[doc = $name]
                $variant,
            )+
        }

        /// Number of counters in [`Counter`].
        pub const NUM_COUNTERS: usize = [$(Counter::$variant),+].len();

        /// All counters, in ID order.
        pub const ALL_COUNTERS: [Counter; NUM_COUNTERS] = [$(Counter::$variant),+];

        impl Counter {
            /// Stable dotted name, e.g. `fabric.sends`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }

            /// Unit of the counter.
            pub fn unit(self) -> Unit {
                match self {
                    $(Counter::$variant => Unit::$unit,)+
                }
            }
        }
    };
}

counters! {
    // -- fabric: simulated NIC --------------------------------------------
    (FabricSends, "fabric.sends", Count),
    (FabricSendBytes, "fabric.send_bytes", Bytes),
    (FabricPuts, "fabric.puts", Count),
    (FabricPutBytes, "fabric.put_bytes", Bytes),
    (FabricRecvs, "fabric.recvs", Count),
    (FabricRnrRetries, "fabric.rnr_retries", Count),
    (FabricBackpressure, "fabric.backpressure", Count),
    (FabricErrors, "fabric.errors", Count),
    (FabricFaultDelayed, "fabric.fault.delayed", Count),
    (FabricFaultReordered, "fabric.fault.reordered", Count),
    (FabricFaultForcedRnr, "fabric.fault.forced_rnr", Count),
    (FabricFaultBrownoutRejects, "fabric.fault.brownout_rejects", Count),
    (FabricFaultCorrupted, "fabric.fault.corrupted", Count),
    (FabricFaultDuplicated, "fabric.fault.duplicated", Count),
    (FabricFaultTruncated, "fabric.fault.truncated", Count),
    (FabricFaultDropped, "fabric.fault.dropped", Count),
    (FabricFaultBlackholed, "fabric.fault.blackholed", Count),
    (FabricFaultCrashed, "fabric.fault.crashed", Count),
    (FabricEpochRespawns, "fabric.epoch.respawns", Count),
    (FabricEpochStaleDropped, "fabric.epoch.stale_dropped", Count),
    (FabricFrameWindowOverflow, "fabric.frame.window_overflow", Count),
    (FabricReliableRetransmits, "fabric.reliable.retransmits", Count),
    (FabricReliableAcksSent, "fabric.reliable.acks_sent", Count),
    (FabricReliableAcked, "fabric.reliable.acked", Count),
    (FabricReliableWindowStalls, "fabric.reliable.window_stalls", Count),
    (FabricReliablePeerDead, "fabric.reliable.peer_dead", Count),
    (FabricReliableRtoUs, "fabric.reliable.rto_us", Micros),
    // -- lci core: device / pool / backoff --------------------------------
    (LciEgrSent, "lci.egr_sent", Count),
    (LciRdvOpened, "lci.rdv_opened", Count),
    (LciReceived, "lci.received", Count),
    (LciEnqRejected, "lci.enq_rejected", Count),
    (LciRetries, "lci.retries", Count),
    (LciRetriesExhausted, "lci.retries_exhausted", Count),
    (LciProgressPolls, "lci.progress_polls", Count),
    (LciProgressEvents, "lci.progress_events", Count),
    (LciPoolExhausted, "lci.pool_exhausted", Count),
    (LciBackoffWaits, "lci.backoff_waits", Count),
    (LciBackoffWaitNs, "lci.backoff_wait_ns", Nanos),
    (LciMalformedDropped, "lci.malformed_dropped", Count),
    (LciDuplicateDropped, "lci.duplicate_dropped", Count),
    // -- mini-mpi: wire-frame hardening -----------------------------------
    (MpiMalformedDropped, "mpi.malformed_dropped", Count),
    (MpiDuplicateDropped, "mpi.duplicate_dropped", Count),
    (MpiBackpressureSpins, "mpi.backpressure_spins", Count),
    // -- engines: abelian / gemini ----------------------------------------
    (EngineRounds, "engine.rounds", Count),
    (EngineSentEntries, "engine.sent_entries", Count),
    (EngineSentBytes, "engine.sent_bytes", Bytes),
    (EngineCommSendRetries, "engine.comm_send_retries", Count),
    (EngineCommRecvStalls, "engine.comm_recv_stalls", Count),
    (EngineMalformedDropped, "engine.malformed_dropped", Count),
    (EngineCkptSaves, "engine.ckpt.saves", Count),
    (EngineCkptRestores, "engine.ckpt.restores", Count),
    (EngineCkptBytes, "engine.ckpt.bytes", Bytes),
    // -- phase timers (accumulated by Span guards) ------------------------
    (PhaseComputeNs, "phase.compute_ns", Nanos),
    (PhaseReduceNs, "phase.reduce_ns", Nanos),
    (PhaseBroadcastNs, "phase.broadcast_ns", Nanos),
    // The engines' top-of-round boundary pass: fire list + termination vote.
    (PhaseControlNs, "phase.control_ns", Nanos),
    (PhaseCommNs, "phase.comm_ns", Nanos),
}

/// One counter cell, padded to its own cache line so concurrent writers on
/// different counters never false-share.
#[repr(align(64))]
struct Slot(AtomicU64);

/// Fixed-size table of all counters.
///
/// There is one process-wide table ([`global()`]) and one table per
/// simulated host ([`Registry::for_host`], owned by the host's fabric
/// endpoint). Counting on a host table touches that table only; reads of
/// the global table add every host table in, so a call site counts an event
/// once and both views move. A table built with [`Registry::new`] is
/// isolated.
pub struct Registry {
    slots: [Slot; NUM_COUNTERS],
    /// Host tables that reads of this table include. Only [`global()`] has
    /// any; a table whose host is gone is folded into `slots` and dropped
    /// from the list by the next [`Registry::for_host`].
    hosts: Mutex<Vec<Arc<Registry>>>,
    /// Set on a host table: a gauge cannot be summed, so [`Registry::set`]
    /// writes it through to the global table.
    host: bool,
}

impl Registry {
    /// An isolated registry with every counter at zero.
    pub const fn new() -> Self {
        Registry {
            slots: [const { Slot(AtomicU64::new(0)) }; NUM_COUNTERS],
            hosts: Mutex::new(Vec::new()),
            host: false,
        }
    }

    /// One simulated host's table, included in every read of [`global()`]
    /// from now on (and after the host is gone).
    pub fn for_host() -> Arc<Registry> {
        let table = Arc::new(Registry {
            host: true,
            ..Registry::new()
        });
        let mut hosts = GLOBAL.hosts();
        // The list holds the last reference to a table whose host is gone,
        // so nothing writes it any more: keep its counts, free the table.
        hosts.retain(|gone| {
            if Arc::strong_count(gone) > 1 {
                return true;
            }
            for c in ALL_COUNTERS {
                let v = gone.load(c);
                if v != 0 && !c.unit().is_gauge() {
                    GLOBAL.add(c, v);
                }
            }
            false
        });
        hosts.push(Arc::clone(&table));
        table
    }

    fn hosts(&self) -> MutexGuard<'_, Vec<Arc<Registry>>> {
        // Nothing that holds the lock can panic part-way through an update.
        self.hosts.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to `c`. Relaxed; safe from any thread.
    #[inline]
    pub fn add(&self, c: Counter, delta: u64) {
        self.slots[c as usize].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one to `c`.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Overwrite `c` with `value` — for gauge-style counters (e.g. the
    /// current smoothed RTO) where the latest observation, not a running
    /// sum, is the useful number.
    #[inline]
    pub fn set(&self, c: Counter, value: u64) {
        self.slots[c as usize].0.store(value, Ordering::Relaxed);
        if self.host {
            GLOBAL.slots[c as usize].0.store(value, Ordering::Relaxed);
        }
    }

    /// `c` in this table alone.
    fn load(&self, c: Counter) -> u64 {
        self.slots[c as usize].0.load(Ordering::Relaxed)
    }

    /// `c` in this table plus, unless it is a gauge, in each of `hosts`.
    fn read(&self, c: Counter, hosts: &[Arc<Registry>]) -> u64 {
        let hosts = if c.unit().is_gauge() { &[] } else { hosts };
        hosts.iter().fold(self.load(c), |sum, h| sum + h.load(c))
    }

    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.read(c, &self.hosts())
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        let hosts = self.hosts();
        CounterSnapshot {
            values: ALL_COUNTERS.map(|c| self.read(c, &hosts)),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry: call sites with no host at hand write into it,
/// and its reads include every host's table.
#[inline]
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Convenience: add `delta` to `c` in the global registry.
#[inline]
pub fn add(c: Counter, delta: u64) {
    GLOBAL.add(c, delta);
}

/// Convenience: add one to `c` in the global registry.
#[inline]
pub fn incr(c: Counter) {
    GLOBAL.incr(c);
}

/// Convenience: overwrite gauge `c` in the global registry.
#[inline]
pub fn set(c: Counter, value: u64) {
    GLOBAL.set(c, value);
}

/// Immutable copy of the whole counter table at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; NUM_COUNTERS],
}

impl CounterSnapshot {
    /// Value of one counter in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Per-counter difference `self - earlier` (saturating, so a snapshot
    /// taken out of order cannot underflow).
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        CounterSnapshot { values }
    }

    /// All `(counter, value)` pairs in ID order.
    pub fn entries(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        ALL_COUNTERS.iter().map(move |&c| (c, self.values[c as usize]))
    }

    /// Only the non-zero `(counter, value)` pairs — what reports embed.
    pub fn nonzero(&self) -> Vec<(Counter, u64)> {
        self.entries().filter(|&(_, v)| v != 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut seen = std::collections::HashSet::new();
        for c in ALL_COUNTERS {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
            assert!(c.name().contains('.'), "{} should be namespaced", c.name());
        }
        assert_eq!(seen.len(), NUM_COUNTERS);
    }

    #[test]
    fn add_get_snapshot_delta() {
        let r = Registry::new();
        r.incr(Counter::FabricSends);
        r.add(Counter::FabricSendBytes, 64);
        let a = r.snapshot();
        r.add(Counter::FabricSends, 2);
        r.add(Counter::FabricSendBytes, 128);
        let b = r.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.get(Counter::FabricSends), 2);
        assert_eq!(d.get(Counter::FabricSendBytes), 128);
        assert_eq!(d.get(Counter::FabricRecvs), 0);
        assert_eq!(d.nonzero().len(), 2);
    }

    #[test]
    fn delta_saturates_rather_than_underflows() {
        let r = Registry::new();
        let early = r.snapshot();
        r.incr(Counter::LciRetries);
        let late = r.snapshot();
        // Reversed order: must clamp to zero, not wrap.
        assert_eq!(early.delta(&late).get(Counter::LciRetries), 0);
    }

    #[test]
    fn global_registry_is_shared() {
        let before = global().snapshot();
        incr(Counter::LciProgressPolls);
        add(Counter::LciProgressPolls, 4);
        let after = global().snapshot();
        assert_eq!(after.delta(&before).get(Counter::LciProgressPolls), 5);
    }

    #[test]
    fn global_reads_include_host_tables_alive_or_gone_but_not_isolated_ones() {
        // Nothing else in this crate's tests writes these two rows.
        let spins = || global().get(Counter::MpiBackpressureSpins);
        let before = spins();
        let host = Registry::for_host();
        let isolated = Registry::new();
        host.add(Counter::MpiBackpressureSpins, 3);
        host.set(Counter::FabricReliableRtoUs, 7_777);
        isolated.add(Counter::MpiBackpressureSpins, 100);
        assert_eq!(host.get(Counter::MpiBackpressureSpins), 3);
        assert_eq!(spins() - before, 3);
        assert_eq!(global().get(Counter::FabricReliableRtoUs), 7_777);
        // The host goes; registering the next one folds its table away.
        drop(host);
        assert_eq!(spins() - before, 3);
        let next = Registry::for_host();
        next.incr(Counter::MpiBackpressureSpins);
        assert_eq!(spins() - before, 4);
        // A gauge is the last value any host wrote.
        assert_eq!(global().get(Counter::FabricReliableRtoUs), 7_777);
        next.set(Counter::FabricReliableRtoUs, 400);
        assert_eq!(global().get(Counter::FabricReliableRtoUs), 400);
    }

    #[test]
    fn units_are_sane() {
        assert_eq!(Counter::FabricSendBytes.unit(), Unit::Bytes);
        assert_eq!(Counter::PhaseComputeNs.unit(), Unit::Nanos);
        assert_eq!(Counter::FabricSends.unit(), Unit::Count);
        assert_eq!(Unit::Nanos.name(), "ns");
    }
}
