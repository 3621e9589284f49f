//! The three communication-layer implementations compared in the paper, and
//! what they share.
//!
//! The paper's layers differ in their transport only: LCI's queue, MPI's
//! probe and matching, MPI's windows. Everything else is written once, here:
//!
//! * `tag_for`: the round tag of both tagged layers: the channel (< 15) in
//!   bits 20..24, the round mod 2^20 below. It never sets bit 24 (`AGG_BIT`),
//!   so it fits LCI's 25-bit tags and mini-mpi's 28-bit ones.
//! * `Rounds`: the round each channel has open.
//! * `Stash`: arrivals by tag, oldest first, a tag's whole queue handed out
//!   at once, for the open tag only.
//! * `Sends`: the pending-send ledger, each send with the bytes it holds.
//! * `put_subframe`/`subframes`: the `[len u32][body]` sub-frames of the two
//!   coalescing layers (MPI-Probe's aggregates, MPI-RMA's slots).
//! * `latch`: a layer's first error, kept; `quiesce`: the flush loop of the
//!   two layers that pump.
//!
//! The ledger rule: a byte is on the layer's `MemBook` from when the layer
//! holds it until it leaves: an arrival until `drain` has handed it out (a
//! stashed message, or the sub-frames of a landed RMA slot), a staged
//! sub-frame and a send until the transport is done with it.

mod lci_layer;
mod probe_layer;
mod rma_layer;

pub use lci_layer::LciLayer;
pub use probe_layer::MpiProbeLayer;
pub use rma_layer::MpiRmaLayer;

use crate::comm::CommLayer;
use crate::membook::MemBook;
use lci_trace::{Counter, Registry};
use std::collections::HashMap;
use std::fmt::Display;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Channels a round tag can name.
const CHANNELS: usize = 15;

/// Marks an aggregate of the probe layer, sent under its round's tag.
const AGG_BIT: u32 = 1 << 24;

/// The tag of `round` on `channel`: channel in bits 20..24, round mod 2^20.
fn tag_for(channel: usize, round: u64) -> u32 {
    assert!(channel < CHANNELS, "channel id too large for tag encoding");
    ((channel as u32) << 20) | ((round as u32) & 0xF_FFFF)
}

/// The round each channel has open: how often `begin` has opened it.
#[derive(Default)]
struct Rounds([u64; CHANNELS]);

impl Rounds {
    fn begin(&mut self, channel: usize) {
        self.0[channel] += 1;
    }

    fn open_tag(&self, channel: usize) -> u32 {
        let opened = self.0[channel].checked_sub(1);
        tag_for(channel, opened.expect("begin before send or recv"))
    }
}

/// Arrivals not yet handed out, as `(source, buffer)` by tag in arrival
/// order. `drain` takes a tag's whole queue, so only rounds not yet opened
/// keep one.
struct Stash<B>(HashMap<u32, Vec<(u16, B)>>);

impl<B> Default for Stash<B> {
    fn default() -> Self {
        Stash(HashMap::new())
    }
}

impl<B: Deref<Target = [u8]>> Stash<B> {
    /// Hold `data` from `src` under `tag`; it is on `book` until handed out.
    fn push(&mut self, book: &MemBook, tag: u32, src: u16, data: B) {
        book.alloc(data.len());
        self.0.entry(tag).or_default().push((src, data));
    }

    /// Hand `on_msg` every message under `tag`, oldest first, each leaving
    /// `book` once `on_msg` returns, and forget the tag; returns how many.
    fn drain(&mut self, book: &MemBook, tag: u32, on_msg: &mut dyn FnMut(u16, &[u8])) -> usize {
        let queue = self.0.remove(&tag).unwrap_or_default();
        for (src, data) in &queue {
            on_msg(*src, data);
            book.free(data.len());
        }
        queue.len()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// The pending-send ledger: sends the transport is not done with, each with
/// the bytes it holds on the book.
type Sends<R> = Vec<(R, usize)>;

/// Drop from `reqs` each request that `done` reports finished, handing it
/// to `finish` first.
fn settle<R>(reqs: &mut Vec<R>, mut done: impl FnMut(&R) -> bool, mut finish: impl FnMut(&R)) {
    reqs.retain(|r| {
        let done = done(r);
        if done {
            finish(r);
        }
        !done
    });
}

/// Free the bytes of every send in `sends` that `done` reports finished.
fn retire<R>(sends: &mut Sends<R>, book: &MemBook, mut done: impl FnMut(&R) -> bool) {
    settle(sends, |(req, _)| done(req), |(_, bytes)| book.free(*bytes));
}

/// Append `body` to `buf` as one `[len u32][body]` sub-frame, on `book`.
fn put_subframe(book: &MemBook, buf: &mut Vec<u8>, body: &[u8]) {
    book.alloc(4 + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body);
}

/// Hand each sub-frame body of `blob` to `each`, in order. A length that
/// overruns the blob, or trailing bytes too short for a length, drops the
/// rest and counts `engine.malformed_dropped` once on `counters`.
fn subframes<'a>(blob: &'a [u8], counters: &Registry, mut each: impl FnMut(&'a [u8])) {
    let mut rest = blob;
    while let Some((len, tail)) = rest.split_first_chunk::<4>() {
        let Some(body) = tail.get(..u32::from_le_bytes(*len) as usize) else {
            break;
        };
        each(body);
        rest = &tail[body.len()..];
    }
    if !rest.is_empty() {
        counters.incr(Counter::EngineMalformedDropped);
    }
}

/// Keep the first error a layer meets in `failed` (later ones are its
/// consequences): `Some` of an `Ok`, `None` for an error.
fn latch<T, E: Display>(failed: &OnceLock<String>, what: &str, r: Result<T, E>) -> Option<T> {
    r.map_err(|e| failed.set(format!("{what} failed: {e}")))
        .ok()
}

/// `CommLayer::quiesce` of a layer that pumps: until the layer fails, try
/// `settled` (pump, then: has everything sent left, and is the transport
/// quiescent?), yielding between tries.
fn quiesce(layer: &impl CommLayer, mut settled: impl FnMut() -> bool) {
    while layer.failure().is_none() && !settled() {
        std::thread::yield_now();
    }
}

/// Which communication layer to use (sweep axis in the benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// The paper's contribution.
    Lci,
    /// Two-sided MPI with `MPI_Iprobe` (the baseline).
    MpiProbe,
    /// One-sided MPI with PSCW windows (the lower-bound attempt).
    MpiRma,
}

impl LayerKind {
    /// All kinds, sweep order.
    pub fn all() -> [LayerKind; 3] {
        [LayerKind::Lci, LayerKind::MpiProbe, LayerKind::MpiRma]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            LayerKind::Lci => "lci",
            LayerKind::MpiProbe => "mpi-probe",
            LayerKind::MpiRma => "mpi-rma",
        }
    }
}

/// Build one layer per host of the given kind over a fresh fabric.
///
/// Returns the layers in rank order. The caller keeps the returned guard
/// alive for the duration of the run (it owns the fabric / worlds).
pub fn build_layers(
    kind: LayerKind,
    fabric_cfg: lci_fabric::FabricConfig,
    mpi_cfg: mini_mpi::MpiConfig,
    lci_cfg: lci::LciConfig,
) -> (Vec<Arc<dyn CommLayer>>, LayerWorld) {
    let world = LayerWorld::new(kind, fabric_cfg, mpi_cfg, lci_cfg);
    (world.layers(kind), world)
}

/// Keep-alive guard for the world behind a set of layers.
pub enum LayerWorld {
    /// LCI world (fabric + devices).
    Lci(lci::LciWorld),
    /// mini-mpi world (fabric + communicators).
    Mpi(mini_mpi::MpiWorld),
}

impl LayerWorld {
    /// The world `kind`'s layers run on, over a fresh fabric.
    pub(crate) fn new(
        kind: LayerKind,
        fabric_cfg: lci_fabric::FabricConfig,
        mpi_cfg: mini_mpi::MpiConfig,
        lci_cfg: lci::LciConfig,
    ) -> LayerWorld {
        match kind {
            LayerKind::Lci => LayerWorld::Lci(lci::LciWorld::new(fabric_cfg, lci_cfg)),
            LayerKind::MpiProbe | LayerKind::MpiRma => {
                LayerWorld::Mpi(mini_mpi::MpiWorld::new(fabric_cfg, mpi_cfg))
            }
        }
    }

    /// Mint fresh layers of `kind` (rank order) over this world's transport
    /// endpoints. `kind` must be the one the world was built for.
    pub(crate) fn layers(&self, kind: LayerKind) -> Vec<Arc<dyn CommLayer>> {
        use {LayerKind as K, LayerWorld as W};
        let mint = |h: usize| -> Arc<dyn CommLayer> {
            match (kind, self) {
                (K::Lci, W::Lci(w)) => Arc::new(LciLayer::new(w.device(h))),
                (K::MpiProbe, W::Mpi(w)) => Arc::new(MpiProbeLayer::new(w.comm(h))),
                (K::MpiRma, W::Mpi(w)) => Arc::new(MpiRmaLayer::new(w.comm(h))),
                _ => unreachable!("world kind fixed at construction"),
            }
        };
        (0..self.fabric().num_hosts()).map(mint).collect()
    }

    /// The underlying fabric (fault plans, crash inspection, counters).
    pub fn fabric(&self) -> &lci_fabric::Fabric {
        match self {
            LayerWorld::Lci(w) => w.fabric(),
            LayerWorld::Mpi(w) => w.fabric(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{put_subframe, subframes, tag_for, Stash, AGG_BIT, CHANNELS};
    use crate::comm::{channels, exchange_all, CommLayer};
    use crate::membook::MemBook;
    use lci_trace::{Counter, Registry};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The bodies `subframes` hands out of `blob`, and what it counts.
    fn walk(blob: &[u8]) -> (Vec<Vec<u8>>, u64) {
        let counters = Registry::new();
        let mut bodies = Vec::new();
        subframes(blob, &counters, |b| bodies.push(b.to_vec()));
        (bodies, counters.get(Counter::EngineMalformedDropped))
    }

    /// Whether the length fields of `blob` tile it exactly.
    fn tiles(blob: &[u8]) -> bool {
        match blob.split_first_chunk::<4>() {
            None => blob.is_empty(),
            Some((len, rest)) => {
                let len = u32::from_le_bytes(*len) as usize;
                len <= rest.len() && tiles(&rest[len..])
            }
        }
    }

    proptest! {
        /// Sub-frames come back in order, whole, and nothing is counted; the
        /// book holds each sub-frame's length field and body.
        #[test]
        fn subframes_round_trip(
            bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..301), 0..17),
        ) {
            let (book, mut blob) = (MemBook::new(), Vec::new());
            for b in &bodies {
                put_subframe(&book, &mut blob, b);
            }
            prop_assert_eq!(book.current() as usize, blob.len());
            prop_assert_eq!(walk(&blob), (bodies, 0));
        }

        /// Any blob: no panic, and one count exactly when its length fields
        /// do not tile it (zero-heavy bytes, so short lengths are common).
        #[test]
        fn a_blob_that_does_not_tile_counts_once(
            blob in prop::collection::vec(prop_oneof![Just(0u8), 0u8..8, any::<u8>()], 0..65),
        ) {
            let (bodies, counted) = walk(&blob);
            prop_assert_eq!(counted, !tiles(&blob) as u64);
            // What was handed out is the blob's prefix, framed as it was.
            let (book, mut again) = (MemBook::new(), Vec::new());
            for b in &bodies {
                put_subframe(&book, &mut again, b);
            }
            prop_assert_eq!(&blob[..again.len()], &again[..]);
        }
    }

    /// `drain` hands out a tag's messages oldest first, each still on the
    /// book while `on_msg` holds it, and takes the tag's whole queue; other
    /// tags keep theirs, and the book is back to 0 once every tag is drained.
    #[test]
    fn stash_drain_hands_out_a_tags_whole_queue_in_arrival_order() {
        let (book, mut stash) = (MemBook::new(), Stash::<Vec<u8>>::default());
        let arrivals = [(1, 2, vec![1u8]), (2, 0, vec![9; 5]), (1, 0, vec![2, 2]), (1, 2, vec![])];
        for (tag, src, body) in arrivals {
            stash.push(&book, tag, src, body);
        }
        assert_eq!(book.current(), 8);
        let mut got = Vec::new();
        let n = stash.drain(&book, 1, &mut |src, data| {
            got.push((src, data.to_vec(), book.current()))
        });
        assert_eq!(n, 3);
        assert_eq!(got, [(2, vec![1], 8), (0, vec![2, 2], 7), (2, vec![], 5)]);
        assert_eq!((stash.len(), book.current()), (1, 5));
        assert_eq!(stash.drain(&book, 1, &mut |_, _| panic!("tag 1 is drained")), 0);
        let n = stash.drain(&book, 2, &mut |src, data| assert_eq!((src, data), (0, &[9; 5][..])));
        assert_eq!(n, 1);
        assert_eq!((stash.len(), book.current()), (0, 0));
    }

    #[test]
    fn round_tags_are_distinct_across_the_wrap_and_fit_both_transports() {
        let mut seen = HashSet::new();
        for channel in 0..CHANNELS {
            for round in (1 << 20) - 500..(1 << 20) + 500 {
                let tag = tag_for(channel, round);
                assert_eq!(tag & AGG_BIT, 0, "channel {channel} round {round}");
                assert!(tag <= lci::MAX_TAG, "channel {channel} round {round}");
                assert!(seen.insert(tag), "channel {channel} round {round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel id too large")]
    fn channel_15_has_no_round_tag() {
        tag_for(15, 0);
    }

    /// 1 000 rounds on two channels between two ranks (5-byte payloads, so
    /// the probe layer's aggregate path carries them); afterwards
    /// `stash_len` must be 0 on both: no queue outlives its round.
    pub(super) fn stash_keeps_no_queue_for_a_finished_round<L: CommLayer>(
        layers: [L; 2],
        stash_len: impl Fn(&L) -> usize,
    ) {
        std::thread::scope(|s| {
            for l in &layers {
                s.spawn(move || {
                    for round in 0..1_000u16 {
                        for ch in [channels::REDUCE, channels::BROADCAST] {
                            let msg = [round.to_le_bytes().as_slice(), &[ch as u8]].concat();
                            let got = exchange_all(l, ch, vec![msg.clone(); 2]);
                            assert_eq!(got, vec![(1 - l.rank(), msg)]);
                        }
                    }
                });
            }
        });
        for l in &layers {
            assert_eq!(stash_len(l), 0, "rank {}: dead queues left in the stash", l.rank());
        }
    }
}
