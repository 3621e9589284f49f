//! The MPI-RMA communication layer (the paper's one-sided baseline, §III-C).
//!
//! One window per channel per host, pre-allocated at the worst-case size
//! (all vertices active) with one slot per origin — the pre-allocation that
//! makes MPI-RMA's memory footprint up to an order of magnitude larger than
//! LCI's in Fig. 5. Each round is a generalized active-target epoch:
//! `post`/`start` at `begin`, `put` per peer, `complete` after the sends,
//! and per-origin `wait_any` on the receive side so incoming slots are
//! scattered in arrival order.

use crate::comm::{ChannelSpec, CommLayer};
use crate::membook::MemBook;
use lci_trace::Counter;
use mini_mpi::{MpiComm, Window};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// Outgoing sub-messages of the current round, staged per destination
    /// and written with a single put at `finish_sends` (so engines may send
    /// several messages per peer per round, e.g. Gemini's chunk streams).
    staged: Vec<Vec<u8>>,
    /// Incoming sub-messages de-framed from arrived slots.
    inbox: std::collections::VecDeque<(u16, Vec<u8>)>,
}

/// MPI-RMA-backed [`CommLayer`].
pub struct MpiRmaLayer {
    comm: MpiComm,
    book: Arc<MemBook>,
    chans: Mutex<HashMap<usize, Chan>>,
    /// First fatal MPI/window error observed; once set the layer stops
    /// initiating work and surfaces the message through
    /// [`CommLayer::failure`].
    failed: Mutex<Option<String>>,
}

impl MpiRmaLayer {
    /// Wrap a communicator.
    pub fn new(comm: MpiComm) -> MpiRmaLayer {
        MpiRmaLayer {
            comm,
            book: MemBook::new(),
            chans: Mutex::new(HashMap::new()),
            failed: Mutex::new(None),
        }
    }

    /// The wrapped communicator (diagnostics).
    pub fn comm(&self) -> &MpiComm {
        &self.comm
    }

    /// An empty poll while a round is open: count it on the host's table.
    fn stall(&self) -> Option<(u16, Vec<u8>)> {
        self.comm
            .endpoint()
            .counters()
            .incr(Counter::EngineCommRecvStalls);
        None
    }

    fn record_failure(&self, msg: String) {
        let mut f = self.failed.lock();
        if f.is_none() {
            *f = Some(msg);
        }
    }

    fn is_failed(&self) -> bool {
        self.failed.lock().is_some()
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
        let win = match self.comm.win_create(total) {
            Ok(win) => win,
            Err(e) => {
                // Registration failed; every later call on this channel
                // no-ops behind the failure flag.
                self.record_failure(format!("RMA window creation failed: {e}"));
                return;
            }
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
                inbox: std::collections::VecDeque::new(),
            },
        );
    }

    fn begin(&self, channel: usize) {
        if self.is_failed() {
            return;
        }
        let chans = self.chans.lock();
        let c = chans.get(&channel).expect("register before begin");
        if let Err(e) = c.win.post(&c.peers) {
            self.record_failure(format!("RMA post failed: {e}"));
            return;
        }
        if let Err(e) = c.win.start(&c.peers) {
            self.record_failure(format!("RMA start failed: {e}"));
        }
    }

    fn send(&self, channel: usize, dst: u16, data: Vec<u8>) {
        if self.is_failed() {
            return;
        }
        let mut chans = self.chans.lock();
        let c = chans.get_mut(&channel).expect("register before send");
        // Stage as a [len u32][payload] sub-frame; the put happens at
        // finish_sends so several sends per peer per round coalesce into
        // one slot write.
        let staged = &mut c.staged[dst as usize];
        staged.extend_from_slice(&(data.len() as u32).to_le_bytes());
        staged.extend_from_slice(&data);
        self.book.alloc(4 + data.len());
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
            if let Err(e) = c.win.put(dst, c.slot_at_peer[dst as usize], &framed) {
                self.book.free(staged.len());
                self.record_failure(format!("RMA put failed: {e}"));
                return;
            }
            self.book.free(staged.len());
        }
        if let Err(e) = c.win.complete() {
            self.record_failure(format!("RMA complete failed: {e}"));
        }
    }

    fn try_recv(&self, channel: usize) -> Option<(u16, Vec<u8>)> {
        if self.is_failed() {
            return None;
        }
        let mut chans = self.chans.lock();
        let c = chans.get_mut(&channel).expect("register before recv");
        if let Some(msg) = c.inbox.pop_front() {
            self.book.free(msg.1.len());
            return Some(msg);
        }
        let arrived = match c.win.try_wait_any() {
            Ok(arrived) => arrived,
            Err(e) => {
                self.record_failure(format!("RMA wait failed: {e}"));
                return None;
            }
        };
        match arrived {
            Some(src) => {
                let off = c.my_offsets[src as usize];
                let mut lenb = [0u8; 8];
                c.win.read_local(off, &mut lenb);
                let total = u64::from_le_bytes(lenb) as usize;
                // Puts carry hardware-checksummed RDMA payloads in our fault
                // model, so a lying length prefix should be impossible; keep
                // the slot-capacity bound anyway rather than read past it.
                if total > c.max_recv[src as usize] {
                    lci_trace::incr(Counter::EngineMalformedDropped);
                    return self.stall();
                }
                let mut blob = vec![0u8; total];
                c.win.read_local(off + 8, &mut blob);
                // De-frame the sub-messages, validating every length field:
                // a sub-frame claiming more bytes than remain truncates the
                // de-chunk (counted) instead of panicking.
                let mut cursor = 0usize;
                while cursor + 4 <= total {
                    let len = u32::from_le_bytes(
                        blob[cursor..cursor + 4].try_into().expect("frame"),
                    ) as usize;
                    let end = match (cursor + 4).checked_add(len) {
                        Some(end) if end <= total => end,
                        _ => {
                            lci_trace::incr(Counter::EngineMalformedDropped);
                            break;
                        }
                    };
                    let body = blob[cursor + 4..end].to_vec();
                    cursor = end;
                    self.book.alloc(body.len());
                    c.inbox.push_back((src, body));
                }
                match c.inbox.pop_front() {
                    Some(msg) => {
                        self.book.free(msg.1.len());
                        Some(msg)
                    }
                    None => self.stall(),
                }
            }
            None => self.stall(),
        }
    }

    fn failure(&self) -> Option<String> {
        self.failed.lock().clone().or_else(|| self.comm.failure())
    }

    fn quiesce(&self) {
        // Window puts ride the fabric's reliable RDMA path; only the
        // POST/COMPLETE control frames need flushing, and those live in the
        // communicator's retransmission window.
        self.comm.quiesce();
    }
}
