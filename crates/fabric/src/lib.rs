//! # lci-fabric — an in-process network fabric simulator
//!
//! This crate stands in for the RDMA-capable NICs (Intel Omni-Path / psm2,
//! Mellanox InfiniBand / ibverbs) used in the LCI paper's evaluation. It
//! simulates a cluster of *hosts* inside a single process: each host gets an
//! [`Endpoint`] through which threads inject messages, and the *wire* models
//! transmission latency, sender-side bandwidth serialization, bounded
//! injection queues (back-pressure), a finite pool of pre-posted receive
//! buffers (receiver-not-ready retries), and RDMA writes into registered
//! memory regions. The wire has no thread of its own: on a wall-clock
//! (poll-driven) fabric it is run by whichever host thread polls its endpoint
//! or injects into a full queue, on a manual fabric by the caller's
//! [`Fabric::step`].
//!
//! The primitives exposed here are exactly the ones the paper's runtimes
//! consume:
//!
//! * [`Endpoint::try_send`] — the `lc_send` substrate: an eager two-sided
//!   message carrying a 64-bit header plus a payload. Non-blocking; fails
//!   with [`SendError::Backpressure`] when the injection queue is full, which
//!   is the retryable condition LCI is designed around.
//! * [`Endpoint::try_put`] — the `lc_put` substrate: an RDMA write into a
//!   peer's registered [`MemRegion`], optionally delivering an immediate
//!   value to the peer's completion queue (like `IBV_WR_RDMA_WRITE_WITH_IMM`).
//! * [`Endpoint::poll`] — drain the completion queue, the substrate for
//!   `lc_progress` (and, on a wall-clock fabric, what makes the wire
//!   progress).
//!
//! ## What is modelled, and why
//!
//! The LCI-vs-MPI comparisons in the paper hinge on software behaviour at the
//! NIC boundary (matching, ordering, probing, buffer management), not on
//! analog wire effects. The wire model is therefore deliberately simple —
//! base latency + per-byte serialization + optional jitter — while resource
//! exhaustion (injection depth, receive buffers) is modelled precisely,
//! because LCI's retry-on-failure flow control and MPI's crash-on-exhaustion
//! behaviour (Section III-B of the paper) are core to the comparison.
//!
//! ## Deterministic fault injection
//!
//! A [`FaultPlan`] attached to the configuration schedules timed chaos
//! phases — latency spikes, delivery reordering, receiver-not-ready storms,
//! injection-queue brownouts, wire corruption/duplication/truncation ghosts,
//! probabilistic packet loss ([`Fault::Drop`]), and single-host partitions
//! ([`Fault::Blackhole`]) — executed by the wire from the same seeded RNG as
//! delivery jitter. Combined with the caller-stepped [`Fabric::new_manual`]
//! mode (a virtual clock instead of the wall clock), any failing chaos
//! schedule replays bit-for-bit from `(seed, plan)`; per-endpoint fault
//! counters are surfaced in [`StatsSnapshot`].
//!
//! ## Reliable delivery
//!
//! The lossy faults genuinely eat packets (the sends still complete), so
//! the crate also ships the recovery layer the runtimes
//! stack on top: [`reliable::ReliableSession`] adds per-destination sliding
//! send windows, cumulative + selective acks piggybacked on reverse
//! traffic, seeded exponential-backoff retransmission, and bounded-time
//! peer-failure detection ([`SendError::PeerDead`]), tuned via
//! [`ReliableConfig`]. See the [`reliable`] module docs.

#![warn(missing_docs)]

mod config;
mod endpoint;
mod error;
mod mr;
mod parked;
mod stats;
mod wire;

pub mod busy;
pub mod frame;
pub mod reliable;

pub use config::{FabricConfig, Fault, FaultPhase, FaultPlan, ReliableConfig, WireModel};
pub use endpoint::{Endpoint, Event, FatalKind, PacketBuf};
pub use error::SendError;
pub use mr::{MemRegion, MrKey};
pub use parked::{decode_rtr, encode_rtr, Held, PendingPuts, Put, Rendezvous, Req};
pub use reliable::{FrameBufs, RelRecv, ReliableSession, REL_DATA_OFFSET, REL_OVERHEAD};
pub use stats::StatsSnapshot;
pub use wire::Fabric;

/// Identifier for a simulated host (rank) within one [`Fabric`].
pub type HostId = u16;
