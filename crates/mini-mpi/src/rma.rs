//! One-sided RMA: windows, put, and active-target synchronization.
//!
//! Implements the paper's MPI-RMA communication layer substrate (§III-C):
//! windows are created collectively with *pre-allocated, worst-case-sized*
//! buffers (the root cause of MPI-RMA's memory footprint in Fig. 5), data
//! moves with `put` (RDMA write), and epochs are synchronized with
//! generalized active target synchronization (`post`/`start`/`complete`/
//! `wait`) — the paper rejects `MPI_Win_fence` as too coarse, though a
//! fence is provided too.
//!
//! RMA progress at the target requires the target to poll (the paper keeps a
//! dedicated thread calling `MPI_Iprobe` for exactly this reason — see
//! [`MpiComm::poke`]).

use crate::error::MpiError;
use crate::p2p::{
    pack, MpiComm, KIND_RMA_COMPLETE, KIND_RMA_FENCE, KIND_RMA_POST,
};
use lci_fabric::busy::spin_for_ns;
use lci_fabric::{MemRegion, MrKey, SendError};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Per-window synchronization state, fed by control messages. Completes are
/// tracked per origin (a queue of origin ranks) so that a target can process
/// origins' data in arrival order — the generalized ("fine-grained") active
/// target synchronization the paper implements instead of fences.
#[derive(Default)]
pub(crate) struct RmaState {
    counters: HashMap<u64, WinCounters>,
}

#[derive(Default)]
struct WinCounters {
    posts: u64,
    completes: std::collections::VecDeque<u16>,
    fences: u64,
}

impl RmaState {
    pub(crate) fn on_post(&mut self, win: u64) {
        self.counters.entry(win).or_default().posts += 1;
    }
    pub(crate) fn on_complete(&mut self, win: u64, src: u16) {
        self.counters.entry(win).or_default().completes.push_back(src);
    }
    pub(crate) fn on_fence(&mut self, win: u64) {
        self.counters.entry(win).or_default().fences += 1;
    }
    fn try_take(&mut self, win: u64, which: Which, n: u64) -> bool {
        let c = self.counters.entry(win).or_default();
        let slot = match which {
            Which::Posts => &mut c.posts,
            Which::Fences => &mut c.fences,
        };
        if *slot >= n {
            *slot -= n;
            true
        } else {
            false
        }
    }
    fn pop_complete(&mut self, win: u64) -> Option<u16> {
        self.counters.entry(win).or_default().completes.pop_front()
    }
}

#[derive(Clone, Copy)]
enum Which {
    Posts,
    Fences,
}

/// Collective window-creation registry (the out-of-band key exchange that
/// `MPI_Win_create` performs internally).
pub(crate) struct WinRegistry {
    inner: Mutex<HashMap<u64, Vec<Option<MrKey>>>>,
    cv: Condvar,
}

impl WinRegistry {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(WinRegistry {
            inner: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        })
    }

    /// Collectively exchange keys for window `id`; blocks until all ranks
    /// have contributed.
    fn exchange(&self, id: u64, rank: usize, nranks: usize, key: MrKey) -> Vec<MrKey> {
        let mut g = self.inner.lock();
        let slots = g.entry(id).or_insert_with(|| vec![None; nranks]);
        slots[rank] = Some(key);
        self.cv.notify_all();
        loop {
            let slots = g.get(&id).expect("present");
            if slots.iter().all(|s| s.is_some()) {
                return slots.iter().map(|s| s.expect("checked")).collect();
            }
            self.cv.wait(&mut g);
        }
    }
}

/// An RMA window: one pre-allocated region per host, remotely writable by
/// every peer.
pub struct Window {
    id: u64,
    comm: MpiComm,
    local: MemRegion,
    keys: Vec<MrKey>,
    epoch_targets: Mutex<Vec<u16>>,
    exposed_to: Mutex<u64>,
}

impl MpiComm {
    /// Collective window creation (`MPI_Win_create`): every rank allocates
    /// `local_size` bytes and the keys are exchanged. All ranks must call
    /// `win_create` in the same order.
    pub fn win_create(&self, local_size: usize) -> Result<Window, MpiError> {
        let registry = Arc::clone(self.registry());
        // Per-rank creation counter: since win_create is collective and all
        // ranks call in the same order, every rank derives the same id.
        let id = self.win_counter().fetch_add(1, Ordering::SeqCst);
        let local = self.endpoint().register_mr(local_size);
        let keys = registry.exchange(id, self.rank() as usize, self.size(), local.key());
        Ok(Window {
            id,
            comm: self.clone(),
            local,
            keys,
            epoch_targets: Mutex::new(Vec::new()),
            exposed_to: Mutex::new(0),
        })
    }
}

impl Window {
    /// The window id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Size of the local region in bytes.
    pub fn size(&self) -> usize {
        self.local.len()
    }

    /// Read from the local region (e.g. after `wait` returns).
    pub fn read_local(&self, offset: usize, buf: &mut [u8]) {
        self.local.read_at(offset, buf);
    }

    /// `MPI_Put`: RDMA-write `data` into `target`'s region at `offset`.
    /// Must be called inside an access epoch (`start` .. `complete`) or
    /// between fences.
    pub fn put(&self, target: u16, offset: usize, data: &[u8]) -> Result<(), MpiError> {
        spin_for_ns(self.comm.config().personality.rma_put_overhead_ns);
        if target == self.comm.rank() {
            self.local.write_at(offset, data);
            return Ok(());
        }
        self.comm.rma_put_inc();
        loop {
            match self.comm.endpoint().try_put(
                target,
                self.keys[target as usize],
                offset,
                data,
                crate::p2p::CTX_RMA_PUT,
                None,
            ) {
                Ok(()) => return Ok(()),
                Err(SendError::Backpressure) => {
                    self.comm.poke()?;
                    std::thread::yield_now();
                }
                Err(e) => {
                    self.comm.rma_put_dec();
                    return Err(MpiError::Fatal(format!("rma put failed: {e}")));
                }
            }
        }
    }

    /// `MPI_Win_post`: open an exposure epoch for the given origins.
    pub fn post(&self, origins: &[u16]) -> Result<(), MpiError> {
        *self.exposed_to.lock() += origins.len() as u64;
        for &o in origins {
            self.comm
                .ctrl_send(o, pack(KIND_RMA_POST, self.id as u32, 0))?;
        }
        Ok(())
    }

    /// `MPI_Win_start`: open an access epoch towards the given targets;
    /// blocks until each target has posted.
    pub fn start(&self, targets: &[u16]) -> Result<(), MpiError> {
        self.comm
            .wait_rma(self.id, RmaWait::Posts, targets.len() as u64)?;
        *self.epoch_targets.lock() = targets.to_vec();
        Ok(())
    }

    /// `MPI_Win_complete`: finish the access epoch — waits for local puts to
    /// complete remotely, then notifies the targets.
    pub fn complete(&self) -> Result<(), MpiError> {
        self.comm.wait_rma_puts_drained()?;
        let targets = std::mem::take(&mut *self.epoch_targets.lock());
        for t in targets {
            self.comm
                .ctrl_send(t, pack(KIND_RMA_COMPLETE, self.id as u32, 0))?;
        }
        Ok(())
    }

    /// `MPI_Win_wait`: close the exposure epoch — blocks until every posted
    /// origin has completed; afterwards the local region holds their puts.
    pub fn wait(&self) -> Result<(), MpiError> {
        while *self.exposed_to.lock() > 0 {
            self.wait_any()?;
        }
        Ok(())
    }

    /// Generalized active-target synchronization: block until *one* origin
    /// of the current exposure epoch completes and return its rank. Lets
    /// the target scatter each origin's data in arrival order (the paper's
    /// fine-grained alternative to waiting for everyone).
    pub fn wait_any(&self) -> Result<u16, MpiError> {
        {
            let mut n = self.exposed_to.lock();
            assert!(*n > 0, "wait_any without exposed origins");
            *n -= 1;
        }
        loop {
            if let Some(src) = self.poll_complete()? {
                return Ok(src);
            }
            std::thread::yield_now();
        }
    }

    /// Non-blocking [`Window::wait_any`]: `Ok(None)` if nothing completed
    /// yet. Does **not** decrement the exposure count until a completion is
    /// returned.
    pub fn try_wait_any(&self) -> Result<Option<u16>, MpiError> {
        match self.poll_complete()? {
            Some(src) => {
                let mut n = self.exposed_to.lock();
                assert!(*n > 0, "completion without exposure");
                *n -= 1;
                Ok(Some(src))
            }
            None => Ok(None),
        }
    }

    fn poll_complete(&self) -> Result<Option<u16>, MpiError> {
        let mut st = self.comm.state_for_rma()?;
        self.comm.progress_locked(&mut st);
        Ok(st.rma.pop_complete(self.id))
    }

    /// `MPI_Win_fence`: collective barrier-style epoch boundary.
    pub fn fence(&self) -> Result<(), MpiError> {
        self.comm.wait_rma_puts_drained()?;
        let n = self.comm.size() as u16;
        for r in 0..n {
            if r != self.comm.rank() {
                self.comm
                    .ctrl_send(r, pack(KIND_RMA_FENCE, self.id as u32, 0))?;
            }
        }
        self.comm
            .wait_rma(self.id, RmaWait::Fences, (n - 1) as u64)
    }

    /// Deregister the window's region (`MPI_Win_free`). Further remote puts
    /// to it will fail the origin.
    pub fn free(self) {
        self.comm.endpoint().deregister_mr(self.local.key());
    }
}

pub(crate) enum RmaWait {
    Posts,
    Fences,
}

impl MpiComm {
    pub(crate) fn wait_rma(&self, win: u64, which: RmaWait, n: u64) -> Result<(), MpiError> {
        if n == 0 {
            return Ok(());
        }
        let which = match which {
            RmaWait::Posts => Which::Posts,
            RmaWait::Fences => Which::Fences,
        };
        loop {
            {
                let mut st = self.state_for_rma()?;
                self.progress_locked(&mut st);
                if st.rma.try_take(win, which, n) {
                    return Ok(());
                }
            }
            std::thread::yield_now();
        }
    }

    pub(crate) fn wait_rma_puts_drained(&self) -> Result<(), MpiError> {
        while self.rma_puts_outstanding() > 0 {
            self.poke()?;
            std::thread::yield_now();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rma_state_counting() {
        let mut s = RmaState::default();
        s.on_post(1);
        s.on_post(1);
        s.on_complete(1, 4);
        s.on_complete(1, 2);
        assert!(!s.try_take(1, Which::Posts, 3));
        assert!(s.try_take(1, Which::Posts, 2));
        assert_eq!(s.pop_complete(1), Some(4));
        assert_eq!(s.pop_complete(1), Some(2));
        assert_eq!(s.pop_complete(1), None);
        assert!(!s.try_take(1, Which::Fences, 1));
        assert!(!s.try_take(2, Which::Posts, 1));
    }
}
