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

use crate::comm::{ChannelSpec, CommLayer};
use crate::membook::MemBook;
use bytes::Bytes;
use lci::{Backoff, Device, RecvRequest, SendRequest};
use lci_trace::{Counter, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Tag encoding: channel in the high bits, round (mod 2^20) in the low.
fn tag_for(channel: usize, round: u64) -> u32 {
    assert!(channel < 32, "channel id too large for tag encoding");
    ((channel as u32) << 20) | ((round as u32) & 0xF_FFFF)
}

struct Inner {
    /// Current round per channel.
    round: HashMap<usize, u64>,
    stash: super::Stash,
    /// Rendezvous receives still in flight.
    pending_recvs: Vec<RecvRequest>,
    /// Rendezvous sends still holding payload (for memory accounting).
    pending_sends: Vec<(SendRequest, usize)>,
}

/// LCI-backed [`CommLayer`].
pub struct LciLayer {
    dev: Device,
    book: Arc<MemBook>,
    inner: Mutex<Inner>,
    /// First fatal error observed; once set the layer stops initiating work
    /// and surfaces the message through [`CommLayer::failure`]. A read is
    /// one load, which the empty polls of `recv_round` make often.
    failed: OnceLock<String>,
}

impl LciLayer {
    /// Wrap a device.
    pub fn new(dev: Device) -> LciLayer {
        LciLayer {
            dev,
            book: MemBook::new(),
            inner: Mutex::new(Inner {
                round: HashMap::new(),
                stash: HashMap::new(),
                pending_recvs: Vec::new(),
                pending_sends: Vec::new(),
            }),
            failed: OnceLock::new(),
        }
    }

    /// The wrapped device (diagnostics).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Keep the first fatal error; later ones are its consequences.
    fn record_failure(&self, msg: String) {
        let _ = self.failed.set(msg);
    }

    fn pump(&self, inner: &mut Inner) {
        self.dev.progress();
        // Completed rendezvous receives become routable messages.
        let mut i = 0;
        while i < inner.pending_recvs.len() {
            if inner.pending_recvs[i].is_done() {
                let r = inner.pending_recvs.swap_remove(i);
                self.route(inner, &r);
            } else {
                i += 1;
            }
        }
        // Drain whatever RECV-DEQ surfaces.
        while let Some(r) = self.dev.recv_deq() {
            if r.is_done() {
                self.route(inner, &r);
            } else {
                inner.pending_recvs.push(r);
            }
        }
        // Retire completed rendezvous sends (free their accounting).
        let mut i = 0;
        while i < inner.pending_sends.len() {
            if inner.pending_sends[i].0.is_done() {
                let (_, bytes) = inner.pending_sends.swap_remove(i);
                self.book.free(bytes);
            } else {
                i += 1;
            }
        }
    }

    fn route(&self, inner: &mut Inner, r: &RecvRequest) {
        // The stash hands `Vec`s across the `CommLayer` boundary.
        let data = r.take_data().expect("done request yields data").into_vec();
        self.book.alloc(data.len());
        inner
            .stash
            .entry(r.tag())
            .or_default()
            .push_back((r.src(), data));
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
        let mut inner = self.inner.lock();
        let e = inner.round.entry(channel).or_insert(0);
        *e = e.wrapping_add(1);
    }

    fn send(&self, channel: usize, dst: u16, data: Vec<u8>) {
        let round = {
            let inner = self.inner.lock();
            *inner.round.get(&channel).expect("begin before send") - 1
        };
        let tag = tag_for(channel, round);
        let len = data.len();
        self.book.alloc(len);
        let bytes = Bytes::from(data);
        // Pace the retry loop: spin while pressure is transient, ramp toward
        // bounded sleeps when the fabric is stressed (brownouts, RNR storms)
        // so the retry loop doesn't compound the congestion it is riding out.
        let mut backoff = Backoff::unbounded(500, 20_000);
        loop {
            match self.dev.send_enq(bytes.clone(), dst, tag) {
                Ok(req) => {
                    if req.is_done() {
                        // Eager: payload copied into the pool; buffer free.
                        self.book.free(len);
                    } else {
                        self.inner.lock().pending_sends.push((req, len));
                    }
                    return;
                }
                Err(e) if e.is_retryable() => {
                    // The defining LCI behaviour: initiation failed benignly;
                    // make progress and retry.
                    self.counters().incr(Counter::EngineCommSendRetries);
                    let mut inner = self.inner.lock();
                    self.pump(&mut inner);
                    drop(inner);
                    backoff.snooze_in(self.counters());
                }
                Err(e) => {
                    // Fatal (device closed, peer declared dead): the round
                    // can never complete, so record the failure for the
                    // engine's bounded abort instead of panicking the host
                    // thread mid-lock.
                    self.book.free(len);
                    self.record_failure(format!("LCI send failed fatally: {e}"));
                    return;
                }
            }
        }
    }

    fn finish_sends(&self, _channel: usize) {}

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

    fn quiesce(&self) {
        loop {
            if self.failure().is_some() {
                return;
            }
            let sends_done = {
                let mut inner = self.inner.lock();
                self.pump(&mut inner);
                inner.pending_sends.is_empty()
            };
            // Rendezvous sends complete on `PutDone`, so an empty pending
            // list plus a quiescent reliable layer means every peer holds
            // everything we sent and none is still retransmitting to us.
            if sends_done && self.dev.quiescent() {
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
        let world = lci::LciWorld::without_servers(
            lci_fabric::FabricConfig::test(2),
            lci::LciConfig::for_hosts(2),
        );
        super::super::tests::stash_keeps_no_queue_for_a_finished_round(
            [0, 1].map(|h| LciLayer::new(world.device(h))),
            |l| l.inner.lock().stash.len(),
        );
    }
}
