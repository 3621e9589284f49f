//! The MPI-Probe communication layer (the paper's two-sided baseline,
//! §III-B).
//!
//! All MPI calls are issued from the dedicated communication thread
//! (`MPI_THREAD_FUNNELED`); incoming traffic is discovered with wildcard
//! `MPI_Iprobe` followed by a directed `MPI_Irecv` — paying, on every poll,
//! the probe overhead and the sequential matching-queue traversal that the
//! paper identifies as MPI's handicap for irregular communication.
//!
//! # The buffered network layer
//!
//! §III-B: "the system buffers small items (those less than the eager-send
//! limit) until either the oldest buffered message times out or the buffer
//! size exceeds the eager send limit" — added because MPI has no
//! back-pressure and floods of small messages exhaust its buffers fatally.
//! This layer implements that aggregation: sub-eager-limit payloads are
//! coalesced per destination into framed aggregate messages, flushed when
//! they exceed the eager limit or at the end of the send phase (the bounded-
//! latency analogue of the paper's timeout).

use crate::comm::{ChannelSpec, CommLayer};
use crate::membook::MemBook;
use bytes::Bytes;
use lci_trace::{Counter, Registry};
use mini_mpi::{MpiComm, RecvReq, SendReq};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Tag encoding: channel in the high bits, round (mod 2^24) in the low
/// (mini-mpi tags are 28 bits). Channel 15 is reserved for aggregates.
fn tag_for(channel: usize, round: u64) -> u32 {
    assert!(channel < 15, "channel id too large for tag encoding");
    ((channel as u32) << 24) | ((round as u32) & 0xFF_FFFF)
}

/// Tag marking an aggregate frame of the buffered network layer.
const AGG_TAG: u32 = 15 << 24;

/// Sub-messages smaller than this are buffered rather than sent directly.
const AGG_THRESHOLD: usize = 1 << 10;

struct Inner {
    round: HashMap<usize, u64>,
    stash: super::Stash,
    /// Rendezvous receives posted after a probe, still in flight.
    pending_recvs: Vec<RecvReq>,
    /// Sends not yet complete (rendezvous), with accounted bytes.
    pending_sends: Vec<(SendReq, usize)>,
    /// Buffered network layer: per-destination aggregates of small messages.
    /// Frame format: repeated `[tag u32][len u32][payload]`.
    agg: HashMap<u16, Vec<u8>>,
}

/// MPI-Probe-backed [`CommLayer`].
pub struct MpiProbeLayer {
    comm: MpiComm,
    book: Arc<MemBook>,
    inner: Mutex<Inner>,
    /// First fatal MPI error observed; once set the layer stops initiating
    /// work and surfaces the message through [`CommLayer::failure`].
    failed: OnceLock<String>,
}

impl MpiProbeLayer {
    /// Wrap a communicator.
    pub fn new(comm: MpiComm) -> MpiProbeLayer {
        MpiProbeLayer {
            comm,
            book: MemBook::new(),
            inner: Mutex::new(Inner {
                round: HashMap::new(),
                stash: HashMap::new(),
                pending_recvs: Vec::new(),
                pending_sends: Vec::new(),
                agg: HashMap::new(),
            }),
            failed: OnceLock::new(),
        }
    }

    /// The wrapped communicator (diagnostics).
    pub fn comm(&self) -> &MpiComm {
        &self.comm
    }

    /// Keep the first fatal error; later ones are its consequences.
    fn record_failure(&self, msg: String) {
        let _ = self.failed.set(msg);
    }

    fn pump(&self, inner: &mut Inner) {
        // Probe for anything new; receive it wherever it belongs. One probe
        // per pump mirrors the paper's interleaved send/receive loop.
        match self.comm.iprobe(None, None) {
            Ok(Some(status)) => {
                match self.comm.irecv(Some(status.src), Some(status.tag)) {
                    Ok(req) => self.track_recv(inner, req),
                    Err(e) => {
                        self.record_failure(format!("MPI receive failed: {e}"));
                        return;
                    }
                }
            }
            Ok(None) => {}
            Err(e) => {
                self.record_failure(format!("MPI probe failed: {e}"));
                return;
            }
        }
        // Test in-flight receives (MPI_Test also progresses the network).
        let mut i = 0;
        while i < inner.pending_recvs.len() {
            match self.comm.test_recv(&inner.pending_recvs[i]) {
                Ok(true) => {
                    let req = inner.pending_recvs.swap_remove(i);
                    self.route(inner, &req);
                }
                Ok(false) => i += 1,
                Err(e) => {
                    self.record_failure(format!("MPI receive failed: {e}"));
                    return;
                }
            }
        }
        // Retire completed sends.
        let mut i = 0;
        while i < inner.pending_sends.len() {
            match self.comm.test_send(&inner.pending_sends[i].0) {
                Ok(true) => {
                    let (_, bytes) = inner.pending_sends.swap_remove(i);
                    self.book.free(bytes);
                }
                Ok(false) => i += 1,
                Err(e) => {
                    self.record_failure(format!("MPI send failed: {e}"));
                    return;
                }
            }
        }
    }

    fn track_recv(&self, inner: &mut Inner, req: RecvReq) {
        match self.comm.test_recv(&req) {
            Ok(true) => self.route(inner, &req),
            Ok(false) => inner.pending_recvs.push(req),
            Err(e) => self.record_failure(format!("MPI receive failed: {e}")),
        }
    }

    fn route(&self, inner: &mut Inner, req: &RecvReq) {
        let status = req.status().expect("completed recv has status");
        let data = req.take_data().expect("completed recv has data");
        if status.tag == AGG_TAG {
            // De-frame an aggregate from the buffered network layer. Every
            // length field is validated before use: a sub-frame claiming
            // more bytes than remain means the aggregate is mangled, and the
            // rest is dropped (counted) instead of panicking.
            let mut off = 0;
            while off + 8 <= data.len() {
                let tag = u32::from_le_bytes(data[off..off + 4].try_into().expect("frame"));
                let len =
                    u32::from_le_bytes(data[off + 4..off + 8].try_into().expect("frame"))
                        as usize;
                let end = match (off + 8).checked_add(len) {
                    Some(end) if end <= data.len() => end,
                    _ => {
                        self.counters().incr(Counter::EngineMalformedDropped);
                        return;
                    }
                };
                let body = data[off + 8..end].to_vec();
                off = end;
                self.book.alloc(body.len());
                inner
                    .stash
                    .entry(tag)
                    .or_default()
                    .push_back((status.src, body));
            }
            if off != data.len() {
                // Trailing bytes too short for a sub-frame header.
                self.counters().incr(Counter::EngineMalformedDropped);
            }
            return;
        }
        self.book.alloc(data.len());
        inner
            .stash
            .entry(status.tag)
            .or_default()
            .push_back((status.src, data));
    }

    /// Queue a small message into the per-destination aggregate, flushing if
    /// it exceeds the eager limit.
    fn agg_push(&self, inner: &mut Inner, dst: u16, tag: u32, data: &[u8]) {
        let buf = inner.agg.entry(dst).or_default();
        buf.extend_from_slice(&tag.to_le_bytes());
        buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
        buf.extend_from_slice(data);
        if buf.len() >= self.comm.config().eager_limit {
            let frame = std::mem::take(buf);
            self.agg_flush_one(inner, dst, frame);
        }
    }

    fn agg_flush_one(&self, inner: &mut Inner, dst: u16, frame: Vec<u8>) {
        let len = frame.len();
        self.book.alloc(len);
        match self.comm.isend(Bytes::from(frame), dst, AGG_TAG) {
            Ok(req) => match self.comm.test_send(&req) {
                Ok(true) => self.book.free(len),
                Ok(false) => inner.pending_sends.push((req, len)),
                Err(e) => {
                    self.book.free(len);
                    self.record_failure(format!("MPI send failed: {e}"));
                }
            },
            Err(e) => {
                self.book.free(len);
                self.record_failure(format!("MPI isend failed: {e}"));
            }
        }
    }

    fn agg_flush_all(&self, inner: &mut Inner) {
        let drained: Vec<(u16, Vec<u8>)> = inner
            .agg
            .iter_mut()
            .filter(|(_, b)| !b.is_empty())
            .map(|(&d, b)| (d, std::mem::take(b)))
            .collect();
        for (dst, frame) in drained {
            self.agg_flush_one(inner, dst, frame);
        }
    }
}

impl CommLayer for MpiProbeLayer {
    fn rank(&self) -> u16 {
        self.comm.rank()
    }

    fn num_hosts(&self) -> usize {
        self.comm.size()
    }

    fn name(&self) -> &'static str {
        "mpi-probe"
    }

    fn membook(&self) -> Arc<MemBook> {
        Arc::clone(&self.book)
    }

    fn counters(&self) -> &Registry {
        self.comm.endpoint().counters()
    }

    fn register_channel(&self, _channel: usize, _spec: ChannelSpec) {
        // Two-sided MPI allocates per message.
    }

    fn begin(&self, channel: usize) {
        let mut inner = self.inner.lock();
        *inner.round.entry(channel).or_insert(0) += 1;
    }

    fn send(&self, channel: usize, dst: u16, data: Vec<u8>) {
        let mut inner = self.inner.lock();
        let round = *inner.round.get(&channel).expect("begin before send") - 1;
        let tag = tag_for(channel, round);
        if data.len() < AGG_THRESHOLD {
            // Buffered network layer: coalesce small items (§III-B).
            self.agg_push(&mut inner, dst, tag, &data);
            return;
        }
        drop(inner);
        let len = data.len();
        self.book.alloc(len);
        match self.comm.isend(Bytes::from(data), dst, tag) {
            Ok(req) => {
                let mut inner = self.inner.lock();
                match self.comm.test_send(&req) {
                    Ok(true) => self.book.free(len),
                    Ok(false) => inner.pending_sends.push((req, len)),
                    Err(e) => {
                        self.book.free(len);
                        self.record_failure(format!("MPI send failed: {e}"));
                    }
                }
            }
            Err(e) => {
                self.book.free(len);
                self.record_failure(format!("MPI isend failed: {e}"));
            }
        }
    }

    fn finish_sends(&self, _channel: usize) {
        // The bounded-latency flush of the buffered layer (timeout analogue).
        let mut inner = self.inner.lock();
        self.agg_flush_all(&mut inner);
    }

    fn try_recv(&self, channel: usize) -> Option<(u16, Vec<u8>)> {
        let mut inner = self.inner.lock();
        self.pump(&mut inner);
        let round = *inner.round.get(&channel).expect("begin before recv") - 1;
        let tag = tag_for(channel, round);
        let msg = super::stash_pop(&mut inner.stash, tag);
        if let Some((_, data)) = &msg {
            self.book.free(data.len());
        } else {
            self.counters().incr(Counter::EngineCommRecvStalls);
        }
        msg
    }

    fn failure(&self) -> Option<String> {
        self.failed.get().cloned().or_else(|| self.comm.failure())
    }

    fn quiesce(&self) {
        loop {
            if self.failure().is_some() {
                return;
            }
            // Rendezvous `isend`s only finish once the payload put lands,
            // so draining `pending_sends` also covers an RTR that arrives
            // after our last round — the put it triggers is issued from
            // this same pump.
            let sends_done = {
                let mut inner = self.inner.lock();
                self.pump(&mut inner);
                inner.pending_sends.is_empty()
            };
            if sends_done && self.comm.quiescent() {
                return;
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stash_keeps_no_queue_for_a_finished_round() {
        let world = mini_mpi::MpiWorld::new(
            lci_fabric::FabricConfig::test(2),
            mini_mpi::MpiConfig::default(),
        );
        super::super::tests::stash_keeps_no_queue_for_a_finished_round(
            [0, 1].map(|h| MpiProbeLayer::new(world.comm(h))),
            |l| l.inner.lock().stash.len(),
        );
    }
}
