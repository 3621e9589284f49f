//! The MPI-RMA communication layer (the paper's one-sided baseline, §III-C).
//!
//! One window per channel per host, pre-allocated at the worst-case size
//! (all vertices active) with one slot per origin — the pre-allocation that
//! makes MPI-RMA's memory footprint up to an order of magnitude larger than
//! LCI's in Fig. 5. Each round is a generalized active-target epoch:
//! `post`/`start` at `begin`, `put` per peer, `complete` after the sends,
//! and per-origin `wait_any` on the receive side so incoming slots are
//! scattered in arrival order. A slot is `[total u64]` followed by the
//! round's sub-frames for that target; `drain` reads a landed slot out of the
//! window once and hands its sub-frames on from that copy, in order.

use super::{put_subframe, subframes};
use crate::comm::{ChannelSpec, CommLayer};
use crate::membook::MemBook;
use lci_trace::{Counter, Registry};
use mini_mpi::{MpiComm, MpiError, Window};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

struct Chan {
    win: Window,
    /// Slot offset of each origin in *my* window.
    my_offsets: Vec<usize>,
    /// Offset of *my* slot in each peer's window.
    slot_at_peer: Vec<usize>,
    /// Max payload I may send to each peer.
    max_send: Vec<usize>,
    /// Max payload each origin may land in my window (slot capacity).
    max_recv: Vec<usize>,
    peers: Vec<u16>,
    /// Outgoing sub-frames of the current round, staged per destination
    /// and written with a single put at `finish_sends` (so engines may send
    /// several messages per peer per round, e.g. Gemini's chunk streams).
    staged: Vec<Vec<u8>>,
}

/// MPI-RMA-backed [`CommLayer`].
pub struct MpiRmaLayer {
    comm: MpiComm,
    book: Arc<MemBook>,
    chans: Mutex<HashMap<usize, Chan>>,
    /// First fatal MPI/window error observed; once set the layer stops
    /// initiating work and surfaces the message through
    /// [`CommLayer::failure`].
    failed: OnceLock<String>,
}

impl MpiRmaLayer {
    /// Wrap a communicator.
    pub fn new(comm: MpiComm) -> MpiRmaLayer {
        MpiRmaLayer {
            comm,
            book: MemBook::new(),
            chans: Mutex::new(HashMap::new()),
            failed: OnceLock::new(),
        }
    }

    fn check<T>(&self, what: &str, r: Result<T, MpiError>) -> Option<T> {
        super::latch(&self.failed, what, r)
    }

    fn is_failed(&self) -> bool {
        self.failed.get().is_some()
    }

    /// Hand `on_msg` each sub-frame of the slot `src` filled in my window,
    /// in order; the bodies handed out stay on the book until the last one
    /// is. Returns how many.
    fn land(&self, c: &Chan, src: u16, on_msg: &mut dyn FnMut(u16, &[u8])) -> usize {
        let off = c.my_offsets[src as usize];
        let mut lenb = [0u8; 8];
        c.win.read_local(off, &mut lenb);
        let total = u64::from_le_bytes(lenb) as usize;
        // Puts carry hardware-checksummed RDMA payloads in our fault model,
        // so a lying length prefix should be impossible; keep the
        // slot-capacity bound anyway rather than read past it.
        if total > c.max_recv[src as usize] {
            self.counters().incr(Counter::EngineMalformedDropped);
            return 0;
        }
        let mut blob = vec![0u8; total];
        c.win.read_local(off + 8, &mut blob);
        let (mut n, mut held) = (0, 0);
        subframes(&blob, self.counters(), |b| {
            self.book.alloc(b.len());
            held += b.len();
            on_msg(src, b);
            n += 1;
        });
        self.book.free(held);
        n
    }
}

impl CommLayer for MpiRmaLayer {
    fn rank(&self) -> u16 {
        self.comm.rank()
    }

    fn num_hosts(&self) -> usize {
        self.comm.size()
    }

    fn name(&self) -> &'static str {
        "mpi-rma"
    }

    fn membook(&self) -> Arc<MemBook> {
        Arc::clone(&self.book)
    }

    fn counters(&self) -> &Registry {
        self.comm.endpoint().counters()
    }

    fn register_channel(&self, channel: usize, spec: ChannelSpec) {
        let p = self.comm.size();
        // Window layout: one slot per origin, each `8 + max_recv[origin]`
        // bytes (u64 length prefix + worst-case payload).
        let mut my_offsets = Vec::with_capacity(p);
        let mut total = 0usize;
        for o in 0..p {
            my_offsets.push(total);
            total += 8 + spec.max_recv[o];
        }
        // A failed registration leaves every later call on this channel a
        // no-op behind the failure flag.
        let Some(win) = self.check("RMA window creation", self.comm.win_create(total)) else {
            return;
        };
        // The defining footprint of MPI-RMA: the whole worst-case window is
        // allocated for the lifetime of the channel.
        self.book.alloc(total);
        let me = self.comm.rank();
        let peers: Vec<u16> = (0..p as u16).filter(|&r| r != me).collect();
        self.chans.lock().insert(
            channel,
            Chan {
                win,
                my_offsets,
                slot_at_peer: spec.slot_at_peer,
                max_send: spec.max_send,
                max_recv: spec.max_recv,
                peers,
                staged: vec![Vec::new(); p],
            },
        );
    }

    fn begin(&self, channel: usize) {
        if self.is_failed() {
            return;
        }
        let chans = self.chans.lock();
        let c = chans.get(&channel).expect("register before begin");
        if self.check("RMA post", c.win.post(&c.peers)).is_some() {
            self.check("RMA start", c.win.start(&c.peers));
        }
    }

    fn send(&self, channel: usize, dst: u16, data: Vec<u8>) {
        if self.is_failed() {
            return;
        }
        let mut chans = self.chans.lock();
        let c = chans.get_mut(&channel).expect("register before send");
        // Staged as a sub-frame; the put happens at finish_sends so several
        // sends per peer per round coalesce into one slot write.
        let staged = &mut c.staged[dst as usize];
        put_subframe(&self.book, staged, &data);
        assert!(
            staged.len() <= c.max_send[dst as usize],
            "staged {} exceeds channel max {} for dst {dst}",
            staged.len(),
            c.max_send[dst as usize]
        );
    }

    fn finish_sends(&self, channel: usize) {
        if self.is_failed() {
            return;
        }
        let mut chans = self.chans.lock();
        let c = chans.get_mut(&channel).expect("register before finish");
        for dst in c.peers.clone() {
            let staged = std::mem::take(&mut c.staged[dst as usize]);
            // One put carrying [total u64][sub-frames] into my slot at dst.
            let mut framed = Vec::with_capacity(8 + staged.len());
            framed.extend_from_slice(&(staged.len() as u64).to_le_bytes());
            framed.extend_from_slice(&staged);
            let put = c.win.put(dst, c.slot_at_peer[dst as usize], &framed);
            self.book.free(staged.len());
            if self.check("RMA put", put).is_none() {
                return;
            }
        }
        self.check("RMA complete", c.win.complete());
    }

    fn drain(&self, channel: usize, on_msg: &mut dyn FnMut(u16, &[u8])) -> usize {
        if self.is_failed() {
            return 0;
        }
        let chans = self.chans.lock();
        let c = chans.get(&channel).expect("register before recv");
        let mut n = 0;
        while let Some(Some(src)) = self.check("RMA wait", c.win.try_wait_any()) {
            n += self.land(c, src, on_msg);
        }
        n
    }

    fn failure(&self) -> Option<String> {
        self.failed.get().cloned().or_else(|| self.comm.failure())
    }

    fn ping(&self, peer: u16) {
        self.comm.ping(peer);
    }

    fn quiesce(&self) {
        // Window puts ride the fabric's reliable RDMA path; only the
        // POST/COMPLETE control frames need flushing, and those live in the
        // communicator's retransmission window.
        self.comm.quiesce();
    }
}
