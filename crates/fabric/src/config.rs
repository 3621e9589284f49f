//! Fabric and wire-model configuration, including deterministic fault plans.

use crate::HostId;

/// Timing model for the simulated wire.
///
/// Delays are expressed in nanoseconds of *simulated* time; the fabric maps
/// simulated time onto wall-clock time 1:1 (optionally scaled via
/// [`FabricConfig::time_scale`]), so a 2 µs wire really takes about 2 µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Fixed per-message latency (propagation + switch + NIC pipeline).
    pub base_latency_ns: u64,
    /// Sender-side serialization cost per payload byte. Messages from one
    /// host share its NIC, so this also bounds the injection rate.
    pub ns_per_byte: f64,
    /// Uniform random jitter added to each delivery, `[0, jitter_ns)`.
    pub jitter_ns: u64,
    /// Extra fixed cost for RDMA puts (address translation, key check).
    pub put_extra_ns: u64,
}

impl WireModel {
    /// An Omni-Path-like profile (Stampede2 in the paper): ~1 µs latency,
    /// ~12.5 GB/s per-host injection bandwidth.
    pub fn opa() -> Self {
        WireModel {
            base_latency_ns: 1_000,
            ns_per_byte: 0.08,
            jitter_ns: 200,
            put_extra_ns: 300,
        }
    }

    /// A Mellanox FDR InfiniBand-like profile (Stampede1 in the paper):
    /// slightly higher latency, ~6.8 GB/s.
    pub fn ib_fdr() -> Self {
        WireModel {
            base_latency_ns: 1_300,
            ns_per_byte: 0.15,
            jitter_ns: 250,
            put_extra_ns: 250,
        }
    }

    /// Zero-delay wire for functional tests: a message is due the moment it
    /// is injected. On a wall-clock fabric with no fault plan that is when it
    /// is delivered, by the injecting call itself (see [`crate::Fabric::new`]).
    pub fn instant() -> Self {
        WireModel {
            base_latency_ns: 0,
            ns_per_byte: 0.0,
            jitter_ns: 0,
            put_extra_ns: 0,
        }
    }
}

/// One kind of transient fault the fabric can inject while a phase is active.
///
/// Faults are evaluated against *simulated* time (the same clock the wire
/// thread schedules deliveries on), so a plan composed with a seeded
/// [`FabricConfig::seed`] replays bit-for-bit in the deterministic
/// (manual-step) fabric mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Add `extra_ns + uniform[0, jitter_ns)` to every delivery scheduled
    /// while the phase is active. Applied *unscaled* (ignores
    /// [`FabricConfig::time_scale`]) so spikes bite even on instant test
    /// wires.
    LatencySpike {
        /// Fixed extra latency per delivery.
        extra_ns: u64,
        /// Additional uniform random jitter, `[0, jitter_ns)`.
        jitter_ns: u64,
    },
    /// Shuffle delivery slots: arrivals are buffered and released in seeded
    /// random order once `window` of them are pending (or when the phase
    /// ends). Models adaptive-routing reordering. `window` must be ≥ 2.
    Reorder {
        /// Maximum number of deliveries held back at once.
        window: usize,
    },
    /// Receiver-not-ready storm: every eager delivery to `target` is bounced
    /// as if its receive buffers were exhausted, regardless of actual
    /// credits. Bounces count toward the per-message
    /// [`FabricConfig::rnr_retry_limit`], so runtimes with a finite limit
    /// fail fatally while retry-forever runtimes ride it out.
    RnrStorm {
        /// The rank whose receive credits are stalled.
        target: HostId,
    },
    /// Injection-queue brownout: temporarily shrink every endpoint's
    /// effective injection depth to `max_inflight` (must be ≥ 1), turning
    /// normally rare `Backpressure` into a sustained condition.
    Brownout {
        /// Effective injection depth while the phase is active.
        max_inflight: usize,
    },
    /// Wire corruption: every eager delivery in the phase additionally
    /// delivers a *ghost* copy with `flips` seeded bit-flips somewhere in
    /// its header or payload (must be ≥ 1). The original arrives intact —
    /// this models a reliable transport whose corruption surfaces as
    /// mangled spurious retransmissions, so no layer needs to retransmit
    /// but every layer must detect and drop the mangled sibling.
    Corrupt {
        /// Bit-flips applied to each ghost copy.
        flips: u8,
    },
    /// Duplicate delivery: every eager delivery in the phase is re-delivered
    /// once, bit-for-bit identical, shortly after the original. Consumers
    /// must deduplicate or corrupt their state.
    Duplicate,
    /// Truncation: every eager delivery in the phase additionally delivers
    /// a ghost copy cut to a seeded prefix of its payload (the header
    /// survives — the fabric models header delivery as reliable
    /// side-channel metadata, like a completion-queue entry).
    Truncate,
    /// Lossy wire: each eager delivery in the phase is dropped with
    /// probability `prob_ppm` parts-per-million (seeded per-packet roll).
    /// Unlike the ghost faults above, the *original* vanishes — the send
    /// still completes (the packet left the NIC; the wire ate it), so only a
    /// retransmitting layer such as
    /// [`crate::reliable::ReliableSession`] recovers the payload. RDMA puts
    /// are exempt (hardware-reliable in the model). `prob_ppm` must be in
    /// `1..=1_000_000`.
    Drop {
        /// Per-packet loss probability in parts per million.
        prob_ppm: u32,
    },
    /// Partition one host: every eager delivery to *or from* `peer` silently
    /// vanishes while the phase is active (the sends still complete).
    /// Models a died/unreachable node; surviving hosts detect it only via
    /// retransmission-budget exhaustion (`PeerDead`). RDMA puts are exempt.
    Blackhole {
        /// The rank cut off from the fabric.
        peer: HostId,
    },
    /// Crash-stop failure: once the wire has moved `after_packets`
    /// deliveries involving `host` (as sender or receiver), the host dies —
    /// its endpoint is failed (so its own threads abort) and every
    /// subsequent delivery to or from it vanishes like a blackhole, puts
    /// included. Unlike [`Fault::Blackhole`] the condition is permanent
    /// until [`crate::Fabric::respawn`] brings the host back under a new
    /// incarnation epoch. The trigger is a *packet count*, not a phase
    /// window (the window of the enclosing [`FaultPhase`] is ignored), so
    /// the crash point is schedule-deterministic in both fabric modes and
    /// replays exactly from `FABRIC_SEED`. One crash fires per host per
    /// plan; a respawn does not re-arm it.
    Crash {
        /// The rank that dies.
        host: HostId,
        /// How many wire deliveries involving the host complete before it
        /// dies.
        after_packets: u64,
    },
}

/// A [`Fault`] active during `[start_ns, start_ns + duration_ns)` of
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPhase {
    /// Simulated-time start of the phase.
    pub start_ns: u64,
    /// Phase length; the phase is active for `[start_ns, start_ns + duration_ns)`.
    pub duration_ns: u64,
    /// What misbehaves while the phase is active.
    pub fault: Fault,
}

impl FaultPhase {
    /// A phase active during `[start_ns, start_ns + duration_ns)`.
    pub fn new(start_ns: u64, duration_ns: u64, fault: Fault) -> Self {
        FaultPhase {
            start_ns,
            duration_ns,
            fault,
        }
    }

    /// Is this phase active at simulated time `now_ns`?
    pub fn contains(&self, now_ns: u64) -> bool {
        now_ns >= self.start_ns && now_ns - self.start_ns < self.duration_ns
    }

    /// Exclusive end of the phase (saturating).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.duration_ns)
    }
}

/// A deterministic chaos schedule: timed [`FaultPhase`]s executed by the wire
/// thread using the fabric's seeded RNG, so any failing schedule replays
/// bit-for-bit from `(seed, plan)`.
///
/// Phases may overlap; where two phases of the same kind overlap, latency
/// spikes take the *first* matching phase, brownouts take the *smallest*
/// depth, and reorder takes the first matching window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled chaos phases.
    pub phases: Vec<FaultPhase>,
}

impl FaultPlan {
    /// An empty plan: the fabric behaves exactly as without fault injection.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no phases are scheduled.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Builder-style phase append.
    pub fn with_phase(mut self, start_ns: u64, duration_ns: u64, fault: Fault) -> Self {
        self.phases.push(FaultPhase::new(start_ns, duration_ns, fault));
        self
    }

    /// Validate the plan against a fabric with `num_hosts` hosts.
    pub fn validate(&self, num_hosts: usize) -> Result<(), String> {
        for (i, p) in self.phases.iter().enumerate() {
            if p.duration_ns == 0 {
                return Err(format!("phase {i}: duration_ns must be > 0"));
            }
            match p.fault {
                Fault::Reorder { window } if window < 2 => {
                    return Err(format!("phase {i}: reorder window must be >= 2"));
                }
                Fault::Brownout { max_inflight: 0 } => {
                    return Err(format!("phase {i}: brownout max_inflight must be >= 1"));
                }
                Fault::RnrStorm { target } if target as usize >= num_hosts => {
                    return Err(format!(
                        "phase {i}: rnr storm target {target} out of range (num_hosts={num_hosts})"
                    ));
                }
                Fault::Corrupt { flips: 0 } => {
                    return Err(format!("phase {i}: corrupt flips must be >= 1"));
                }
                Fault::Drop { prob_ppm } if prob_ppm == 0 || prob_ppm > 1_000_000 => {
                    return Err(format!(
                        "phase {i}: drop prob_ppm must be in 1..=1_000_000"
                    ));
                }
                Fault::Blackhole { peer } if peer as usize >= num_hosts => {
                    return Err(format!(
                        "phase {i}: blackhole peer {peer} out of range (num_hosts={num_hosts})"
                    ));
                }
                Fault::Crash { host, .. } if host as usize >= num_hosts => {
                    return Err(format!(
                        "phase {i}: crash host {host} out of range (num_hosts={num_hosts})"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Active latency spike at `now_ns`, as `(extra_ns, jitter_ns)`.
    pub fn spike_at(&self, now_ns: u64) -> Option<(u64, u64)> {
        self.phases.iter().find_map(|p| match p.fault {
            Fault::LatencySpike { extra_ns, jitter_ns } if p.contains(now_ns) => {
                Some((extra_ns, jitter_ns))
            }
            _ => None,
        })
    }

    /// Active reorder window at `now_ns`.
    pub fn reorder_at(&self, now_ns: u64) -> Option<usize> {
        self.phases.iter().find_map(|p| match p.fault {
            Fault::Reorder { window } if p.contains(now_ns) => Some(window),
            _ => None,
        })
    }

    /// Is an RNR storm against `target` active at `now_ns`?
    pub fn rnr_storm_at(&self, now_ns: u64, target: HostId) -> bool {
        self.phases.iter().any(|p| {
            matches!(p.fault, Fault::RnrStorm { target: t } if t == target) && p.contains(now_ns)
        })
    }

    /// Smallest active brownout depth at `now_ns`, if any brownout is active.
    pub fn brownout_at(&self, now_ns: u64) -> Option<usize> {
        self.phases
            .iter()
            .filter_map(|p| match p.fault {
                Fault::Brownout { max_inflight } if p.contains(now_ns) => Some(max_inflight),
                _ => None,
            })
            .min()
    }

    /// Bit-flips per corrupted ghost if a corruption phase is active at
    /// `now_ns`.
    pub fn corrupt_at(&self, now_ns: u64) -> Option<u8> {
        self.phases.iter().find_map(|p| match p.fault {
            Fault::Corrupt { flips } if p.contains(now_ns) => Some(flips),
            _ => None,
        })
    }

    /// Is a duplicate-delivery phase active at `now_ns`?
    pub fn duplicate_at(&self, now_ns: u64) -> bool {
        self.phases
            .iter()
            .any(|p| matches!(p.fault, Fault::Duplicate) && p.contains(now_ns))
    }

    /// Is a truncation phase active at `now_ns`?
    pub fn truncate_at(&self, now_ns: u64) -> bool {
        self.phases
            .iter()
            .any(|p| matches!(p.fault, Fault::Truncate) && p.contains(now_ns))
    }

    /// Loss probability (parts per million) if a drop phase is active at
    /// `now_ns`. Overlapping drop phases take the first match.
    pub fn drop_at(&self, now_ns: u64) -> Option<u32> {
        self.phases.iter().find_map(|p| match p.fault {
            Fault::Drop { prob_ppm } if p.contains(now_ns) => Some(prob_ppm),
            _ => None,
        })
    }

    /// Is a blackhole phase cutting off `host` active at `now_ns`?
    pub fn blackhole_at(&self, now_ns: u64, host: HostId) -> bool {
        self.phases.iter().any(|p| {
            matches!(p.fault, Fault::Blackhole { peer } if peer == host) && p.contains(now_ns)
        })
    }

    /// Packet-count crash trigger for `host`, if the plan schedules one.
    /// Crash triggers ignore the phase window (see [`Fault::Crash`]);
    /// overlapping crash phases for one host take the first match.
    pub fn crash_for(&self, host: HostId) -> Option<u64> {
        self.phases.iter().find_map(|p| match p.fault {
            Fault::Crash { host: h, after_packets } if h == host => Some(after_packets),
            _ => None,
        })
    }

    /// Exclusive end of the last phase (0 for an empty plan).
    pub fn horizon_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.end_ns()).max().unwrap_or(0)
    }

    /// A seeded pseudo-random chaos plan spanning roughly `horizon_ns` of
    /// simulated time: one phase of each fault kind, with seed-derived
    /// offsets and intensities. Used by the chaos profile of the stress
    /// suite so a single `FABRIC_SEED` reproduces both the plan and the
    /// wire-level jitter.
    pub fn chaos(seed: u64, num_hosts: usize, horizon_ns: u64) -> FaultPlan {
        // Cheap splitmix64 so this stays deterministic without threading the
        // fabric RNG through configuration building.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            let mut z = state;
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let h = horizon_ns.max(8);
        let span = h / 8;
        let mut plan = FaultPlan::none();
        let faults = [
            Fault::LatencySpike {
                extra_ns: 1_000 + next() % 20_000,
                jitter_ns: 1 + next() % 5_000,
            },
            Fault::Reorder {
                window: 2 + (next() % 6) as usize,
            },
            Fault::RnrStorm {
                target: (next() % num_hosts as u64) as HostId,
            },
            Fault::Brownout {
                max_inflight: 1 + (next() % 4) as usize,
            },
            Fault::Corrupt {
                flips: 1 + (next() % 4) as u8,
            },
            Fault::Duplicate,
            Fault::Truncate,
            // Mild loss (1–5%): survivable by the reliable sublayer, unlike
            // a blackhole or crash, which are deliberately excluded — chaos
            // plans must leave runs completable without recovery machinery.
            Fault::Drop {
                prob_ppm: 10_000 + (next() % 40_000) as u32,
            },
        ];
        for (i, fault) in faults.into_iter().enumerate() {
            let start = i as u64 * span / 2 + next() % span.max(1);
            let duration = span / 2 + next() % span.max(1);
            plan = plan.with_phase(start, duration.max(1), fault);
        }
        plan
    }
}

/// Tuning knobs for the ack/retransmit sublayer
/// ([`crate::reliable::ReliableSession`]).
///
/// All times are simulated nanoseconds (virtual-clock ticks in manual
/// mode). The defaults bound peer-failure detection at roughly
/// `retry_budget` doublings of `rto_base_ns` capped at `rto_cap_ns` —
/// about 70 ms of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliableConfig {
    /// Maximum unacked frames per destination; a full window surfaces
    /// `SendError::Backpressure` to the caller (bounded buffering).
    pub window: usize,
    /// Initial retransmission timeout.
    pub rto_base_ns: u64,
    /// Exponential-backoff ceiling for the retransmission timeout.
    pub rto_cap_ns: u64,
    /// Seeded uniform jitter added to each timeout, `[0, rto_jitter_ns)`,
    /// so retransmissions from many peers do not synchronize.
    pub rto_jitter_ns: u64,
    /// Retransmissions of one frame before the destination is declared
    /// dead (`PeerDead`).
    pub retry_budget: u32,
    /// How long a receiver owes an ack before it sends a standalone one.
    pub ack_delay_ns: u64,
    /// Send a standalone ack after this many unacked data frames even if
    /// the clock has not reached the deadline — keeps windows draining on
    /// a frozen virtual clock.
    pub ack_every: u32,
    /// Receive-side exactly-once gate: how many sequence numbers above the
    /// in-order watermark a [`crate::frame::SeqGate`] tracks before old
    /// pending entries are evicted (counted as
    /// `fabric.frame.window_overflow`). Bounds gate memory per source.
    pub gate_window: u64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            window: 32,
            rto_base_ns: 400_000,
            rto_cap_ns: 8_000_000,
            rto_jitter_ns: 50_000,
            retry_budget: 12,
            ack_delay_ns: 100_000,
            ack_every: 8,
            gate_window: crate::frame::DEFAULT_GATE_WINDOW,
        }
    }
}

impl ReliableConfig {
    /// Builder-style override of the per-destination send window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Builder-style override of the retransmission-timeout band
    /// (base, cap).
    pub fn with_rto(mut self, base_ns: u64, cap_ns: u64) -> Self {
        self.rto_base_ns = base_ns;
        self.rto_cap_ns = cap_ns;
        self
    }

    /// Builder-style override of the retry budget.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Builder-style override of the receive-gate window.
    pub fn with_gate_window(mut self, window: u64) -> Self {
        self.gate_window = window;
        self
    }
}

/// Configuration for a [`crate::Fabric`].
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of simulated hosts.
    pub num_hosts: usize,
    /// Wire timing model.
    pub wire: WireModel,
    /// Maximum number of in-flight injected operations per endpoint. When
    /// full, `try_send`/`try_put` fail with `SendError::Backpressure`.
    pub injection_depth: usize,
    /// Number of pre-posted receive buffers per endpoint. An eager message
    /// arriving when all are consumed triggers a receiver-not-ready retry.
    pub rx_buffers: usize,
    /// Maximum payload of a single eager (`try_send`) message.
    pub max_payload: usize,
    /// How many receiver-not-ready retries a message survives before the
    /// *sending* endpoint is failed (models the unrecoverable network errors
    /// the paper observed with MPI). `u32::MAX` retries forever.
    pub rnr_retry_limit: u32,
    /// Delay before a receiver-not-ready message is retried.
    pub rnr_delay_ns: u64,
    /// Multiplier applied to all simulated delays (1.0 = real time; 0.0
    /// turns every wire into `WireModel::instant`).
    pub time_scale: f64,
    /// Seed for delivery jitter and fault-plan randomness.
    pub seed: u64,
    /// Timed chaos phases executed by the wire ([`FaultPlan::none`]
    /// disables fault injection entirely).
    pub fault_plan: FaultPlan,
    /// Ack/retransmit sublayer tuning (consumed by
    /// [`crate::reliable::ReliableSession`], not by the wire itself).
    pub reliable: ReliableConfig,
}

impl FabricConfig {
    /// A functional-test configuration: instant wire, generous resources.
    pub fn test(num_hosts: usize) -> Self {
        FabricConfig {
            num_hosts,
            wire: WireModel::instant(),
            injection_depth: 4096,
            rx_buffers: 1 << 16,
            max_payload: 1 << 16,
            rnr_retry_limit: u32::MAX,
            rnr_delay_ns: 1_000,
            time_scale: 0.0,
            seed: 0xC0FFEE,
            fault_plan: FaultPlan::none(),
            reliable: ReliableConfig::default(),
        }
    }

    /// A Stampede2-like configuration used by the benchmark harness.
    pub fn stampede2(num_hosts: usize) -> Self {
        FabricConfig {
            num_hosts,
            wire: WireModel::opa(),
            injection_depth: 256,
            rx_buffers: 1024,
            max_payload: 1 << 16,
            rnr_retry_limit: u32::MAX,
            rnr_delay_ns: 4_000,
            time_scale: 1.0,
            seed: 0x57A2,
            fault_plan: FaultPlan::none(),
            reliable: ReliableConfig::default(),
        }
    }

    /// A Stampede1-like (InfiniBand FDR) configuration.
    pub fn stampede1(num_hosts: usize) -> Self {
        FabricConfig {
            num_hosts,
            wire: WireModel::ib_fdr(),
            injection_depth: 192,
            rx_buffers: 768,
            max_payload: 1 << 16,
            rnr_retry_limit: u32::MAX,
            rnr_delay_ns: 5_000,
            time_scale: 1.0,
            seed: 0x57A1,
            fault_plan: FaultPlan::none(),
            reliable: ReliableConfig::default(),
        }
    }

    /// A configuration for the deterministic (manual-step) fabric mode of
    /// [`crate::Fabric::new_manual`]: a latency-bearing wire driven on a
    /// virtual clock, so simulated time advances discretely with each
    /// delivery and the whole schedule — including fault phases — replays
    /// bit-for-bit from `seed`.
    ///
    /// The wire must have nonzero latency in this mode: with an instant
    /// wire the virtual clock never advances and timed fault phases would
    /// never start or end.
    pub fn deterministic(num_hosts: usize, seed: u64) -> Self {
        FabricConfig {
            num_hosts,
            wire: WireModel::opa(),
            injection_depth: 64,
            rx_buffers: 256,
            max_payload: 1 << 16,
            rnr_retry_limit: u32::MAX,
            rnr_delay_ns: 2_000,
            time_scale: 1.0,
            seed,
            fault_plan: FaultPlan::none(),
            reliable: ReliableConfig::default(),
        }
    }

    /// Builder-style override of the wire model.
    pub fn with_wire(mut self, wire: WireModel) -> Self {
        self.wire = wire;
        self
    }

    /// Builder-style override of the injection depth.
    pub fn with_injection_depth(mut self, depth: usize) -> Self {
        self.injection_depth = depth;
        self
    }

    /// Builder-style override of the receive-buffer count.
    pub fn with_rx_buffers(mut self, n: usize) -> Self {
        self.rx_buffers = n;
        self
    }

    /// Builder-style override of the RNR retry limit.
    pub fn with_rnr_retry_limit(mut self, n: u32) -> Self {
        self.rnr_retry_limit = n;
        self
    }

    /// Builder-style override of the time scale.
    pub fn with_time_scale(mut self, s: f64) -> Self {
        self.time_scale = s;
        self
    }

    /// Builder-style override of the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Builder-style override of the reliable-sublayer tuning.
    pub fn with_reliable(mut self, r: ReliableConfig) -> Self {
        self.reliable = r;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let s2 = FabricConfig::stampede2(8);
        assert_eq!(s2.num_hosts, 8);
        assert!(s2.wire.base_latency_ns > 0);
        let s1 = FabricConfig::stampede1(4);
        assert!(s1.wire.ns_per_byte > s2.wire.ns_per_byte, "FDR is slower than OPA");
        let t = FabricConfig::test(2);
        assert_eq!(t.wire, WireModel::instant());
    }

    #[test]
    fn builder_overrides() {
        let c = FabricConfig::test(2)
            .with_injection_depth(7)
            .with_rx_buffers(9)
            .with_rnr_retry_limit(3)
            .with_time_scale(2.0)
            .with_seed(99)
            .with_wire(WireModel::opa());
        assert_eq!(c.injection_depth, 7);
        assert_eq!(c.rx_buffers, 9);
        assert_eq!(c.rnr_retry_limit, 3);
        assert_eq!(c.time_scale, 2.0);
        assert_eq!(c.seed, 99);
        assert_eq!(c.wire, WireModel::opa());
    }

    #[test]
    fn fault_phase_window_is_half_open() {
        let p = FaultPhase::new(100, 50, Fault::Brownout { max_inflight: 1 });
        assert!(!p.contains(99));
        assert!(p.contains(100));
        assert!(p.contains(149));
        assert!(!p.contains(150));
        assert_eq!(p.end_ns(), 150);
    }

    #[test]
    fn fault_plan_queries() {
        let plan = FaultPlan::none()
            .with_phase(0, 100, Fault::LatencySpike { extra_ns: 10, jitter_ns: 5 })
            .with_phase(50, 100, Fault::Reorder { window: 4 })
            .with_phase(0, 200, Fault::RnrStorm { target: 1 })
            .with_phase(0, 100, Fault::Brownout { max_inflight: 8 })
            .with_phase(50, 100, Fault::Brownout { max_inflight: 2 });
        assert_eq!(plan.spike_at(0), Some((10, 5)));
        assert_eq!(plan.spike_at(100), None);
        assert_eq!(plan.reorder_at(0), None);
        assert_eq!(plan.reorder_at(60), Some(4));
        assert!(plan.rnr_storm_at(10, 1));
        assert!(!plan.rnr_storm_at(10, 0));
        assert!(!plan.rnr_storm_at(200, 1));
        // Overlapping brownouts take the smallest depth.
        assert_eq!(plan.brownout_at(60), Some(2));
        assert_eq!(plan.brownout_at(10), Some(8));
        assert_eq!(plan.brownout_at(160), None);
        assert_eq!(plan.horizon_ns(), 200);
        assert!(plan.validate(2).is_ok());
    }

    #[test]
    fn fault_plan_validation_rejects_bad_phases() {
        let hosts = 2;
        let bad_window = FaultPlan::none().with_phase(0, 10, Fault::Reorder { window: 1 });
        assert!(bad_window.validate(hosts).is_err());
        let bad_depth = FaultPlan::none().with_phase(0, 10, Fault::Brownout { max_inflight: 0 });
        assert!(bad_depth.validate(hosts).is_err());
        let bad_target = FaultPlan::none().with_phase(0, 10, Fault::RnrStorm { target: 7 });
        assert!(bad_target.validate(hosts).is_err());
        let zero_len = FaultPlan::none().with_phase(0, 0, Fault::RnrStorm { target: 0 });
        assert!(zero_len.validate(hosts).is_err());
        assert!(FaultPlan::none().validate(hosts).is_ok());
    }

    #[test]
    fn chaos_plans_are_seed_deterministic() {
        let a = FaultPlan::chaos(42, 4, 1_000_000);
        let b = FaultPlan::chaos(42, 4, 1_000_000);
        let c = FaultPlan::chaos(43, 4, 1_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.validate(4).is_ok());
        assert_eq!(a.phases.len(), 8);
        // Chaos plans must leave runs completable: mild loss is included,
        // a blackhole never is.
        assert!(a
            .phases
            .iter()
            .any(|p| matches!(p.fault, Fault::Drop { prob_ppm } if (10_000..=50_000).contains(&prob_ppm))));
        assert!(!a
            .phases
            .iter()
            .any(|p| matches!(p.fault, Fault::Blackhole { .. })));
    }

    #[test]
    fn lossy_fault_queries_and_validation() {
        let plan = FaultPlan::none()
            .with_phase(0, 100, Fault::Drop { prob_ppm: 50_000 })
            .with_phase(50, 100, Fault::Blackhole { peer: 1 });
        assert_eq!(plan.drop_at(0), Some(50_000));
        assert_eq!(plan.drop_at(99), Some(50_000));
        assert_eq!(plan.drop_at(100), None);
        assert!(!plan.blackhole_at(0, 1));
        assert!(plan.blackhole_at(50, 1));
        assert!(!plan.blackhole_at(50, 0));
        assert!(!plan.blackhole_at(150, 1));
        assert!(plan.validate(2).is_ok());
        let zero_prob = FaultPlan::none().with_phase(0, 10, Fault::Drop { prob_ppm: 0 });
        assert!(zero_prob.validate(2).is_err());
        let over_prob = FaultPlan::none().with_phase(0, 10, Fault::Drop { prob_ppm: 1_000_001 });
        assert!(over_prob.validate(2).is_err());
        let bad_peer = FaultPlan::none().with_phase(0, 10, Fault::Blackhole { peer: 2 });
        assert!(bad_peer.validate(2).is_err());
    }

    #[test]
    fn reliable_config_defaults_bound_peer_death() {
        let r = ReliableConfig::default();
        // Worst-case simulated time to declare a peer dead: the sum of the
        // doubling RTOs capped at rto_cap_ns, plus jitter. Keep it under
        // 100 ms so blackhole aborts are snappy even on 1:1 time scales.
        let mut total = 0u64;
        let mut rto = r.rto_base_ns;
        for _ in 0..r.retry_budget {
            total += rto + r.rto_jitter_ns;
            rto = (rto * 2).min(r.rto_cap_ns);
        }
        assert!(total < 100_000_000, "death bound {total} ns too lax");
        assert!(r.window >= 1 && r.ack_every >= 1);
        assert_eq!(r.gate_window, crate::frame::DEFAULT_GATE_WINDOW);
    }

    #[test]
    fn reliable_config_builders() {
        let r = ReliableConfig::default()
            .with_window(4)
            .with_rto(10_000, 80_000)
            .with_retry_budget(5)
            .with_gate_window(64);
        assert_eq!(r.window, 4);
        assert_eq!(r.rto_base_ns, 10_000);
        assert_eq!(r.rto_cap_ns, 80_000);
        assert_eq!(r.retry_budget, 5);
        assert_eq!(r.gate_window, 64);
    }

    #[test]
    fn crash_fault_queries_and_validation() {
        let plan = FaultPlan::none()
            .with_phase(0, u64::MAX / 2, Fault::Crash { host: 1, after_packets: 40 })
            .with_phase(0, 10, Fault::Crash { host: 1, after_packets: 99 });
        // First match wins; the phase window is irrelevant to the trigger.
        assert_eq!(plan.crash_for(1), Some(40));
        assert_eq!(plan.crash_for(0), None);
        assert!(plan.validate(2).is_ok());
        let bad = FaultPlan::none().with_phase(0, 10, Fault::Crash { host: 2, after_packets: 1 });
        assert!(bad.validate(2).is_err());
        // Chaos plans must stay completable: never a crash.
        let chaos = FaultPlan::chaos(7, 4, 1_000_000);
        assert!(!chaos.phases.iter().any(|p| matches!(p.fault, Fault::Crash { .. })));
    }

    #[test]
    fn adversarial_fault_queries_and_validation() {
        let plan = FaultPlan::none()
            .with_phase(0, 100, Fault::Corrupt { flips: 3 })
            .with_phase(50, 100, Fault::Duplicate)
            .with_phase(120, 30, Fault::Truncate);
        assert_eq!(plan.corrupt_at(0), Some(3));
        assert_eq!(plan.corrupt_at(100), None);
        assert!(!plan.duplicate_at(10));
        assert!(plan.duplicate_at(50));
        assert!(!plan.duplicate_at(150));
        assert!(!plan.truncate_at(100));
        assert!(plan.truncate_at(120));
        assert!(plan.validate(2).is_ok());
        let bad = FaultPlan::none().with_phase(0, 10, Fault::Corrupt { flips: 0 });
        assert!(bad.validate(2).is_err());
    }
}
