//! The pluggable communication-layer interface of the Abelian runtime.
//!
//! Each BSP communication phase is an irregular all-to-all: every host sends
//! exactly one (possibly empty) message to every peer on a *channel* and
//! consumes exactly one message from every peer, processing arrivals in any
//! order (the gather-communicate-scatter pattern of §III-A). The trait is
//! shaped so that all three of the paper's layers implement it naturally:
//!
//! * **LCI** ([`crate::layers::LciLayer`]) — `SEND-ENQ`/`RECV-DEQ` with the
//!   first-packet policy; rounds are distinguished by tags.
//! * **MPI-Probe** ([`crate::layers::MpiProbeLayer`]) — `isend` +
//!   wildcard `iprobe` + directed `irecv`, all from the dedicated
//!   communication thread (`MPI_THREAD_FUNNELED`).
//! * **MPI-RMA** ([`crate::layers::MpiRmaLayer`]) — pre-allocated worst-case
//!   windows, `put`, and generalized active-target synchronization.
//!
//! The engine guarantees: `register_channel` is called collectively (same
//! order on every host) before first use; each round on a channel is
//! `begin → send×(p-1) → finish_sends → try_recv until p-1 messages`;
//! rounds on a channel never overlap on one host.
//!
//! What a layer must tolerate in return: nothing synchronises hosts between
//! rounds except the rounds themselves, so with three or more hosts a fast
//! peer's round *r + 1* traffic on a channel can arrive while this host is
//! still receiving round *r* of the **same** channel (it is waiting on a
//! slower third host). A layer hands `try_recv` the open round's messages
//! only — the tagged layers stash the early ones by `(channel, round)`, the
//! RMA layer's `start` does not return until the target has `post`ed that
//! round, i.e. has read the previous one out of its window.

use crate::membook::MemBook;
use std::sync::Arc;

/// Sizing information for a recurring exchange pattern.
///
/// Only the RMA layer (which must pre-allocate) uses these; message-passing
/// layers size buffers per message.
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// Per-origin maximum payload this host can receive.
    pub max_recv: Vec<usize>,
    /// Per-target maximum payload this host will send.
    pub max_send: Vec<usize>,
    /// Byte offset of this host's slot in each peer's window.
    pub slot_at_peer: Vec<usize>,
}

impl ChannelSpec {
    /// A spec where every pair may exchange up to `max` bytes.
    pub fn uniform(num_hosts: usize, rank: u16, max: usize) -> ChannelSpec {
        let slot = (max + 8) * rank as usize;
        ChannelSpec {
            max_recv: vec![max; num_hosts],
            max_send: vec![max; num_hosts],
            slot_at_peer: vec![slot; num_hosts],
        }
    }
}

/// A host's communication layer (one of LCI / MPI-Probe / MPI-RMA).
pub trait CommLayer: Send + Sync {
    /// This host's rank.
    fn rank(&self) -> u16;
    /// Number of hosts.
    fn num_hosts(&self) -> usize;
    /// Layer name for reports ("lci", "mpi-probe", "mpi-rma").
    fn name(&self) -> &'static str;
    /// The communication-buffer ledger (Fig. 5 instrumentation).
    fn membook(&self) -> Arc<MemBook>;

    /// Collective channel registration; must precede the first `begin` on
    /// `channel` and be called in the same order on every host.
    fn register_channel(&self, channel: usize, spec: ChannelSpec);

    /// Open a round on `channel`.
    fn begin(&self, channel: usize);

    /// Send this round's message for `dst` (exactly once per peer per
    /// round; empty payloads are real messages).
    fn send(&self, channel: usize, dst: u16, data: Vec<u8>);

    /// Signal that all of this round's sends have been issued.
    fn finish_sends(&self, channel: usize);

    /// Poll for the next arrived message of the current round.
    fn try_recv(&self, channel: usize) -> Option<(u16, Vec<u8>)>;

    /// A fatal, unrecoverable failure recorded by the layer — e.g. the
    /// transport's retransmission budget was exhausted and a peer declared
    /// unreachable. Once this returns `Some`, the current round can never
    /// complete: pollers must stop spinning and abort with the message.
    /// Layers that cannot fail report `None`.
    fn failure(&self) -> Option<String> {
        None
    }

    /// Drive progress until everything this layer has sent is acknowledged
    /// by its destination, or the layer fails. Hosts call this once, after
    /// their final round, before retiring: on a lossy wire a host that
    /// simply stops polling can still hold frames whose only copy was
    /// dropped, and the retransmission timers that would resend them fire
    /// only from the progress loop — the peer waiting on that data would
    /// wedge forever. Layers whose transport cannot lose messages need no
    /// flush and inherit this no-op.
    fn quiesce(&self) {}
}

/// Complete the receive half of a round on `channel`: poll until `p-1`
/// peers are done, handing `on_msg` each arrival as `(src, data)`; it
/// returns whether that message completed its peer's traffic for the round.
///
/// This is the only place a round waits, so it is also where aborts are
/// bounded: a failed layer can never deliver the missing messages, so an
/// empty poll checks [`CommLayer::failure`] and returns its message as `Err`
/// rather than spin forever on an unfinishable round.
pub fn recv_round(
    layer: &dyn CommLayer,
    channel: usize,
    mut on_msg: impl FnMut(u16, Vec<u8>) -> bool,
) -> Result<(), String> {
    let p = layer.num_hosts();
    let mut done = 0usize;
    while done + 1 < p {
        match layer.try_recv(channel) {
            Some((src, data)) => done += on_msg(src, data) as usize,
            None => {
                if let Some(f) = layer.failure() {
                    return Err(f);
                }
                std::thread::yield_now();
            }
        }
    }
    Ok(())
}

/// Drive a full round synchronously: send `outgoing[p]` to every peer
/// (skipping self) and collect one message from every peer. Convenience for
/// tests and simple phases; the engine proper interleaves sends and
/// receives. Panics if the layer fails mid-exchange.
pub fn exchange_all(
    layer: &dyn CommLayer,
    channel: usize,
    outgoing: Vec<Vec<u8>>,
) -> Vec<(u16, Vec<u8>)> {
    let p = layer.num_hosts();
    let me = layer.rank() as usize;
    assert_eq!(outgoing.len(), p);
    layer.begin(channel);
    for (dst, data) in outgoing.into_iter().enumerate() {
        if dst != me {
            layer.send(channel, dst as u16, data);
        }
    }
    layer.finish_sends(channel);
    let mut got = Vec::with_capacity(p.saturating_sub(1));
    let received = recv_round(layer, channel, |src, data| {
        got.push((src, data));
        true
    });
    if let Err(f) = received {
        panic!(
            "communication layer '{}' (rank {}) failed mid-exchange: {f}",
            layer.name(),
            layer.rank()
        );
    }
    got
}

/// Channel ids used by the engine.
pub mod channels {
    /// Mirror→master reduction payloads, each opened by the sender's
    /// termination vote (`engine::put_vote`): the first phase of every
    /// round, and its only one on an edge-cut.
    pub const REDUCE: usize = 0;
    /// Master→mirror broadcast payloads.
    pub const BROADCAST: usize = 1;
}
