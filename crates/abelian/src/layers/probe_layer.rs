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
//! This layer implements that aggregation: sub-threshold payloads are
//! coalesced per destination and round into a blob of sub-frames, sent under
//! the round's tag with `AGG_BIT` set when it reaches the eager limit or at
//! the end of the send phase (the bounded-latency analogue of the paper's
//! timeout).

use super::{put_subframe, retire, settle, subframes, Rounds, Sends, Stash, AGG_BIT};
use crate::comm::{ChannelSpec, CommLayer};
use crate::membook::MemBook;
use bytes::Bytes;
use lci_trace::Registry;
use mini_mpi::{MpiComm, MpiError, RecvReq, SendReq};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Sub-messages smaller than this are buffered rather than sent directly.
const AGG_THRESHOLD: usize = 1 << 10;

#[derive(Default)]
struct Inner {
    rounds: Rounds,
    stash: Stash<Vec<u8>>,
    /// Receives posted after a probe, still in flight.
    recvs: Vec<RecvReq>,
    sends: Sends<SendReq>,
    /// The buffered network layer's aggregates, by destination and tag.
    agg: HashMap<(u16, u32), Vec<u8>>,
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
            inner: Mutex::default(),
            failed: OnceLock::new(),
        }
    }

    fn check<T>(&self, r: Result<T, MpiError>) -> Option<T> {
        super::latch(&self.failed, "MPI call", r)
    }

    fn pump(&self, inner: &mut Inner) {
        // Probe for everything that has arrived and receive it: one wildcard
        // probe, with its walk of the unexpected queue, per message, and the
        // empty one that ends the loop.
        while let Some(Some(st)) = self.check(self.comm.iprobe(None, None)) {
            let Some(req) = self.check(self.comm.irecv(Some(st.src), Some(st.tag))) else {
                break;
            };
            inner.recvs.push(req);
        }
        // Test in-flight receives (MPI_Test also progresses the network).
        let recvd = |r: &RecvReq| self.check(self.comm.test_recv(r)) == Some(true);
        settle(&mut inner.recvs, recvd, |r| self.route(&mut inner.stash, r));
        // A send that errs is gone: the layer has failed.
        let sent = |r: &SendReq| self.check(self.comm.test_send(r)) != Some(false);
        retire(&mut inner.sends, &self.book, sent);
    }

    /// Stash a completed receive, de-framing an aggregate.
    fn route(&self, stash: &mut Stash<Vec<u8>>, req: &RecvReq) {
        let st = req.status().expect("completed recv has status");
        let data = req.take_data().expect("completed recv has data");
        if st.tag & AGG_BIT == 0 {
            return stash.push(&self.book, st.tag, st.src, data);
        }
        let tag = st.tag & !AGG_BIT;
        subframes(&data, self.counters(), |b| {
            stash.push(&self.book, tag, st.src, b.to_vec())
        });
    }

    /// Send `data`, already on the book, and keep it there until MPI is done
    /// with it.
    fn isend(&self, inner: &mut Inner, data: Vec<u8>, dst: u16, tag: u32) {
        let len = data.len();
        let sent = self.comm.isend(Bytes::from(data), dst, tag);
        let sent = sent.and_then(|req| Ok((self.comm.test_send(&req)?, req)));
        match self.check(sent) {
            Some((false, req)) => inner.sends.push((req, len)),
            _ => self.book.free(len),
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
        self.inner.lock().rounds.begin(channel);
    }

    fn send(&self, channel: usize, dst: u16, data: Vec<u8>) {
        let mut inner = self.inner.lock();
        let tag = inner.rounds.open_tag(channel);
        if data.len() >= AGG_THRESHOLD {
            self.book.alloc(data.len());
            return self.isend(&mut inner, data, dst, tag);
        }
        // Buffered network layer: coalesce small items (§III-B).
        let buf = inner.agg.entry((dst, tag)).or_default();
        put_subframe(&self.book, buf, &data);
        if buf.len() >= self.comm.config().eager_limit {
            let blob = inner.agg.remove(&(dst, tag)).expect("just filled");
            self.isend(&mut inner, blob, dst, tag | AGG_BIT);
        }
    }

    fn finish_sends(&self, _channel: usize) {
        // The bounded-latency flush of the buffered layer (timeout analogue).
        let mut inner = self.inner.lock();
        let mut agg = std::mem::take(&mut inner.agg);
        for ((dst, tag), blob) in agg.drain() {
            self.isend(&mut inner, blob, dst, tag | AGG_BIT);
        }
        inner.agg = agg;
    }

    fn drain(&self, channel: usize, on_msg: &mut dyn FnMut(u16, &[u8])) -> usize {
        let mut inner = self.inner.lock();
        self.pump(&mut inner);
        let tag = inner.rounds.open_tag(channel);
        inner.stash.drain(&self.book, tag, on_msg)
    }

    fn sends_complete(&self) -> bool {
        let mut inner = self.inner.lock();
        if !inner.sends.is_empty() {
            self.pump(&mut inner);
        }
        inner.sends.is_empty()
    }

    fn failure(&self) -> Option<String> {
        self.failed.get().cloned().or_else(|| self.comm.failure())
    }

    fn ping(&self, peer: u16) {
        self.comm.ping(peer);
    }

    fn quiesce(&self) {
        // Rendezvous `isend`s only finish once the payload put lands, so no
        // pending send also covers an RTR that arrives after our last round:
        // the put it triggers is issued from this same pump.
        super::quiesce(self, || {
            let mut inner = self.inner.lock();
            self.pump(&mut inner);
            inner.sends.is_empty() && self.comm.quiescent()
        });
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

    /// Rank 0 sends rank 1 twenty 900 B messages in one round: their
    /// aggregate reaches the eager limit at the fourteenth and is sent
    /// mid-round, the other six go at `finish_sends`. All twenty arrive in
    /// that round, and both books return to 0.
    #[test]
    fn an_aggregate_sent_at_the_eager_limit_still_delivers_its_round() {
        let cfg = mini_mpi::MpiConfig {
            eager_limit: 12 << 10,
            ..Default::default()
        };
        let world = mini_mpi::MpiWorld::new(lci_fabric::FabricConfig::test(2), cfg);
        let layers = [0, 1].map(|h| MpiProbeLayer::new(world.comm(h)));
        let sent: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 900]).collect();
        std::thread::scope(|s| {
            for l in &layers {
                let sent = &sent;
                s.spawn(move || {
                    l.begin(0);
                    let expect = if l.rank() == 0 {
                        for (i, msg) in sent.iter().enumerate() {
                            l.send(0, 1, msg.clone());
                            assert_eq!(l.inner.lock().agg.is_empty(), i == 13, "after {i}");
                        }
                        vec![vec![]]
                    } else {
                        l.send(0, 0, vec![]);
                        sent.clone()
                    };
                    l.finish_sends(0);
                    let mut got = Vec::new();
                    crate::comm::recv_round(l, 0, |_, data| {
                        assert!(expect.iter().any(|e| e == data), "a {} B message", data.len());
                        got.push(data.to_vec());
                        got.len() == expect.len()
                    })
                    .unwrap();
                    got.sort();
                    assert_eq!(got, expect, "rank {}", l.rank());
                    l.quiesce();
                });
            }
        });
        for l in &layers {
            assert_eq!(l.book.current(), 0, "rank {}", l.rank());
        }
    }
}
