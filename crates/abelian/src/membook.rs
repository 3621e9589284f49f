//! Communication-buffer memory accounting (the instrumentation behind the
//! paper's Fig. 5).
//!
//! The paper instruments Abelian's code to count allocation and deallocation
//! of communication buffers; the *footprint* of a host is the maximum size
//! of that working set during execution. `MemBook` reproduces exactly that:
//! layers call [`MemBook::alloc`]/[`MemBook::free`] around every buffer they
//! hold, and the harness reads [`MemBook::peak`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared allocation ledger for one host's communication layer.
///
/// ```
/// use abelian::MemBook;
/// let book = MemBook::new();
/// book.alloc(100);
/// book.alloc(50);
/// book.free(100);
/// assert_eq!(book.current(), 50);
/// assert_eq!(book.peak(), 150); // the Fig. 5 metric
/// ```
#[derive(Debug, Default)]
pub struct MemBook {
    cur: AtomicU64,
    peak: AtomicU64,
    total_allocated: AtomicU64,
}

impl MemBook {
    /// New empty ledger.
    pub fn new() -> Arc<MemBook> {
        Arc::new(MemBook::default())
    }

    /// Record an allocation of `bytes`.
    pub fn alloc(&self, bytes: usize) {
        let now = self.cur.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.total_allocated.fetch_add(bytes as u64, Ordering::Relaxed);
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Record a deallocation of `bytes`.
    pub fn free(&self, bytes: usize) {
        self.cur.fetch_sub(bytes as u64, Ordering::Relaxed);
    }

    /// Bytes currently held.
    pub fn current(&self) -> u64 {
        self.cur.load(Ordering::Relaxed)
    }

    /// Maximum working set observed (the Fig. 5 metric).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Cumulative bytes allocated over the run (allocation churn).
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water() {
        let b = MemBook::new();
        b.alloc(100);
        b.alloc(200);
        b.free(100);
        b.alloc(50);
        assert_eq!(b.current(), 250);
        assert_eq!(b.peak(), 300);
        assert_eq!(b.total_allocated(), 350);
    }
}
