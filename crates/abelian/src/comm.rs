//! The pluggable communication-layer interface of the Abelian runtime.
//!
//! Each BSP communication phase is an irregular all-to-all on a *channel*:
//! every host sends one or more (possibly empty) messages to every peer and
//! receives every peer's, processing each where it lies (the
//! gather-communicate-scatter pattern of §III-A; handler completion in the
//! LCI follow-up, arXiv 2505.01864): `drain` hands a handler every arrived
//! message, and the receiver decides when a peer's traffic for the round is
//! complete (`recv_round`'s `on_msg`). The trait is shaped so that all
//! three of the paper's layers implement it naturally:
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
//! `begin → send (one or more per peer) → finish_sends → drain until every
//! peer is complete → sends_complete until it holds`; rounds on a channel
//! never overlap on one host.
//!
//! What a layer must tolerate in return: nothing synchronises hosts between
//! rounds except the rounds themselves, so with three or more hosts a fast
//! peer's round *r + 1* traffic on a channel can arrive while this host is
//! still receiving round *r* of the **same** channel (it is waiting on a
//! slower third host). A layer's `drain` hands out the open round's
//! messages only — the tagged layers stash the early ones by `(channel,
//! round)`, the RMA layer's `start` does not return until the target has
//! `post`ed that round, i.e. has read the previous one out of its window.

use crate::membook::MemBook;
use lci_trace::{Counter, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// The counter table of this layer's host — its transport endpoint's —
    /// where the engine counts the host's rounds and closes its phase spans.
    /// A layer with no host table counts on the global one.
    fn counters(&self) -> &Registry {
        lci_trace::global()
    }

    /// Collective channel registration; must precede the first `begin` on
    /// `channel` and be called in the same order on every host.
    fn register_channel(&self, channel: usize, spec: ChannelSpec);

    /// Open a round on `channel`.
    fn begin(&self, channel: usize);

    /// Send one of this round's messages for `dst`. A round may send one or
    /// more per peer (empty payloads are real messages); each reaches the
    /// receiver's handler on its own, and the receiver decides when a peer
    /// is complete (`recv_round`'s `on_msg`).
    fn send(&self, channel: usize, dst: u16, data: Vec<u8>);

    /// Signal that all of this round's sends have been issued.
    fn finish_sends(&self, channel: usize);

    /// Drive the transport once, then hand `on_msg` every arrived message of
    /// `channel`'s open round as `(src, payload)`, in arrival order, borrowed
    /// where the layer holds it; returns how many. A later round's messages
    /// wait for that round. `on_msg` must not call back into the layer, which
    /// may hold its lock while it runs.
    fn drain(&self, channel: usize, on_msg: &mut dyn FnMut(u16, &[u8])) -> usize;

    /// Whether the transport is done with every send this host has issued,
    /// driving progress first if one is pending. [`recv_round`] asks once
    /// every peer's traffic is in and does not return before it holds, so a
    /// host leaves a round only once its own sends of that round are
    /// complete: a rendezvous send once its peer has pulled the payload.
    /// Layers whose sends are complete when `finish_sends` returns inherit
    /// `true`.
    fn sends_complete(&self) -> bool {
        true
    }

    /// A fatal, unrecoverable failure recorded by the layer — e.g. the
    /// transport's retransmission budget was exhausted and a peer declared
    /// unreachable. Once this returns `Some`, the current round can never
    /// complete: pollers must stop spinning and abort with the message.
    /// Layers that cannot fail report `None`.
    fn failure(&self) -> Option<String> {
        None
    }

    /// Ask `peer`'s transport to acknowledge. [`recv_round`] calls this for
    /// the peers it still waits on once a round has heard nothing for
    /// [`PING_AFTER`]: this host may owe such a peer nothing — every frame
    /// it sent there acknowledged — and then no retransmission timer runs
    /// toward it. A ping is one that does: a peer that has crashed or left
    /// the run never answers, the transport's retry budget declares it
    /// unreachable, and [`CommLayer::failure`] reports it. Layers that
    /// cannot fail inherit this no-op.
    fn ping(&self, _peer: u16) {}

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

/// Complete the receive half of a round on `channel`: drain until `p-1`
/// peers are done, handing `on_msg` each arrival as `(src, data)`; it
/// returns whether that message completed its peer's traffic for the round.
/// An empty drain counts `engine.comm_recv_stalls`. Then wait until this
/// host's own sends are complete ([`CommLayer::sends_complete`]), so that a
/// host never opens the next round while a send of this one is still on its
/// book. An eager send is complete when it is issued; a rendezvous send is
/// pulled by its peer the next time that peer drives progress, which every
/// waiting host does.
///
/// This is the only place a round waits, so it is also where aborts are
/// bounded: a failed layer can never deliver the missing messages, so an
/// empty drain checks [`CommLayer::failure`] and returns its message as `Err`
/// rather than spin forever on an unfinishable round. A layer fails only
/// once its transport has given up on a peer, and a transport gives up only
/// on a frame it still waits to have acknowledged; so when the round has
/// heard nothing for [`PING_AFTER`], every peer still owing it traffic is
/// pinged ([`CommLayer::ping`]), and again after each further quiet
/// [`PING_AFTER`] (every peer, once the wait is on this host's own sends).
/// That bounds the wait on a peer that crashed after acknowledging
/// everything this host sent it, or that left the run with an error of its
/// own, when no survivor has a frame toward it.
pub fn recv_round(
    layer: &dyn CommLayer,
    channel: usize,
    mut on_msg: impl FnMut(u16, &[u8]) -> bool,
) -> Result<(), String> {
    let (p, me) = (layer.num_hosts(), layer.rank() as usize);
    // The peers still owed traffic, on the stack for up to 64 hosts.
    let (mut inline, mut heap) = ([true; 64], Vec::new());
    let owed = if p <= inline.len() {
        &mut inline[..p]
    } else {
        heap.resize(p, true);
        &mut heap[..]
    };
    owed[me] = false;
    let mut done = 0usize;
    // Empty polls since the last arrival, and when they were first seen
    // (the clock is read once every `POLLS_PER_LOOK` of them).
    let (mut empty, mut quiet_since) = (0u32, None);
    // The send ledger is looked at only once every peer is in.
    while done + 1 < p || !layer.sends_complete() {
        if done + 1 < p {
            let got = layer.drain(channel, &mut |src, data| {
                if on_msg(src, data) {
                    owed[src as usize] = false;
                    done += 1;
                }
            });
            if got > 0 {
                (empty, quiet_since) = (0, None);
                continue;
            }
            layer.counters().incr(Counter::EngineCommRecvStalls);
        }
        if let Some(f) = layer.failure() {
            return Err(f);
        }
        empty = empty.wrapping_add(1);
        if empty % POLLS_PER_LOOK == 0 {
            let now = Instant::now();
            if now.duration_since(*quiet_since.get_or_insert(now)) >= PING_AFTER {
                let all_in = done + 1 == p;
                for peer in (0..p).filter(|&h| owed[h] || (all_in && h != me)) {
                    layer.ping(peer as u16);
                }
                quiet_since = Some(now);
            }
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// How long a round hears nothing before [`recv_round`] pings the peers it
/// still waits on. Far above the span of a retry budget (≈ 70 ms with the
/// default `ReliableConfig`), which every host with traffic toward a peer
/// already relies on that peer to answer within, so no peer a data frame
/// would not declare dead is declared dead by a ping.
pub const PING_AFTER: Duration = Duration::from_secs(1);

/// Empty polls of [`recv_round`] between two readings of the clock.
const POLLS_PER_LOOK: u32 = 1024;

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
        got.push((src, data.to_vec()));
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
    /// Mirror→master reduction payloads: the first phase of a round whose
    /// partitioning gives some mirror a local in-edge (and of every Gemini
    /// round), and then each payload opens with the sender's termination
    /// vote (`engine::put_vote`). The only phase on an edge-cut.
    pub const REDUCE: usize = 0;
    /// Master→mirror broadcast payloads: run when the partitioning gives
    /// some mirror a local out-edge. The only phase on an incoming-edge cut
    /// (a Cartesian cut with one grid row), and then each payload opens with
    /// the vote.
    pub const BROADCAST: usize = 1;
}
