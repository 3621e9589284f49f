//! The LCI communication layer: the paper's contribution wired into the
//! Abelian runtime.
//!
//! The dedicated communication thread (the engine thread calling this layer)
//! drives `Device::progress` itself — folding the paper's communication
//! server into the communication thread — then uses `SEND-ENQ`/`RECV-DEQ`.
//! Rounds are distinguished by tags; because LCI imposes no ordering (the
//! first-packet policy), a fast peer's next-round message can surface early
//! and is stashed until its round opens — exactly the per-source ordering
//! responsibility the paper leaves to the upper layer.

use super::{retire, settle, Rounds, Sends, Stash};
use crate::comm::{ChannelSpec, CommLayer};
use crate::membook::MemBook;
use bytes::Bytes;
use lci::{Device, RecvData, RecvRequest, SendRequest};
use lci_trace::{Counter, EventKind, Registry};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

#[derive(Default)]
struct Inner {
    rounds: Rounds,
    stash: Stash<RecvData>,
    /// Rendezvous receives still in flight.
    recvs: Vec<RecvRequest>,
    /// Rendezvous sends still holding their payload.
    sends: Sends<SendRequest>,
}

/// LCI-backed [`CommLayer`].
pub struct LciLayer {
    dev: Device,
    book: Arc<MemBook>,
    inner: Mutex<Inner>,
    /// First fatal error observed; once set the layer stops initiating work
    /// and surfaces the message through [`CommLayer::failure`]. A read is
    /// one load, which the empty drains of `recv_round` make often.
    failed: OnceLock<String>,
}

impl LciLayer {
    /// Wrap a device.
    pub fn new(dev: Device) -> LciLayer {
        LciLayer {
            dev,
            book: MemBook::new(),
            inner: Mutex::default(),
            failed: OnceLock::new(),
        }
    }

    fn pump(&self, inner: &mut Inner) {
        self.dev.progress();
        // Completed rendezvous receives become routable messages, then
        // whatever RECV-DEQ surfaces.
        settle(&mut inner.recvs, RecvRequest::is_done, |r| {
            self.route(&mut inner.stash, r)
        });
        while let Some(r) = self.dev.recv_deq() {
            if r.is_done() {
                self.route(&mut inner.stash, &r);
            } else {
                inner.recvs.push(r);
            }
        }
        retire(&mut inner.sends, &self.book, SendRequest::is_done);
    }

    fn route(&self, stash: &mut Stash<RecvData>, r: &RecvRequest) {
        let data = r.take_data().expect("done request yields data");
        stash.push(&self.book, r.tag(), r.src(), data);
    }
}

impl CommLayer for LciLayer {
    fn rank(&self) -> u16 {
        self.dev.rank()
    }

    fn num_hosts(&self) -> usize {
        self.dev.num_hosts()
    }

    fn name(&self) -> &'static str {
        "lci"
    }

    fn membook(&self) -> Arc<MemBook> {
        Arc::clone(&self.book)
    }

    fn counters(&self) -> &Registry {
        self.dev.endpoint().counters()
    }

    fn register_channel(&self, _channel: usize, _spec: ChannelSpec) {
        // LCI sizes nothing up front: buffers are allocated per message and
        // recycled through the packet pool. (This is the Fig. 5 story.)
    }

    fn begin(&self, channel: usize) {
        self.inner.lock().rounds.begin(channel);
    }

    fn send(&self, channel: usize, dst: u16, data: Vec<u8>) {
        let tag = self.inner.lock().rounds.open_tag(channel);
        let len = data.len();
        self.book.alloc(len);
        let bytes = Bytes::from(data);
        let mut attempt = 0;
        loop {
            match self.dev.send_enq(bytes.clone(), dst, tag) {
                // Eager: payload copied into the pool; buffer free.
                Ok(req) if req.is_done() => return self.book.free(len),
                Ok(req) => return self.inner.lock().sends.push((req, len)),
                Err(e) if e.is_retryable() => {
                    // The defining LCI behaviour: initiation failed benignly;
                    // make progress, yield, and retry.
                    self.counters().incr(Counter::EngineCommSendRetries);
                    self.dev
                        .endpoint()
                        .record(EventKind::EnqRetry, dst as u32, attempt);
                    attempt += 1;
                    self.pump(&mut self.inner.lock());
                    std::thread::yield_now();
                }
                Err(e) => {
                    // Fatal (device closed, peer declared dead): the round
                    // can never complete, so record the failure for the
                    // engine's bounded abort instead of panicking the host
                    // thread mid-lock.
                    self.book.free(len);
                    let _ = self.failed.set(format!("LCI send failed fatally: {e}"));
                    return;
                }
            }
        }
    }

    fn finish_sends(&self, _channel: usize) {}

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
        if let Some(msg) = self.failed.get() {
            return Some(msg.clone());
        }
        self.dev.is_failed().then(|| {
            format!(
                "LCI device on rank {} failed (peer unreachable or fatal fabric error)",
                self.dev.rank()
            )
        })
    }

    fn ping(&self, peer: u16) {
        self.dev.ping(peer);
    }

    fn quiesce(&self) {
        // Rendezvous sends complete on `PutDone`, so no pending send plus a
        // quiescent reliable layer means every peer holds everything we sent
        // and none is still retransmitting to us.
        super::quiesce(self, || {
            let mut inner = self.inner.lock();
            self.pump(&mut inner);
            inner.sends.is_empty() && self.dev.quiescent()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stash_keeps_no_queue_for_a_finished_round() {
        let world = lci::LciWorld::new(
            lci_fabric::FabricConfig::test(2),
            lci::LciConfig::for_hosts(2),
        );
        super::super::tests::stash_keeps_no_queue_for_a_finished_round(
            [0, 1].map(|h| LciLayer::new(world.device(h))),
            |l| l.inner.lock().stash.len(),
        );
    }
}
