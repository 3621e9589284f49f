//! The packet pool.
//!
//! LCI's flow control hinges on a fixed-size pool of fixed-capacity packets
//! (Section III-D of the paper): `SEND-ENQ` fails — retryably — when no
//! packet is available, which caps the injection rate at a small constant
//! times the number of hosts and guarantees the receiver's fixed set of
//! buffers cannot be overrun.
//!
//! A host is one thread, which leases and frees every packet of its pool, so
//! the pool is one free list behind one lock: the per-thread shards the paper
//! adopts from its reference [16] pay off only when many threads share a
//! pool. A packet is built, zeroed, by the first lease that finds the free
//! list empty while fewer than `capacity` packets exist, so a pool costs the
//! packets its traffic holds at once, not `capacity` of them at construction.
//!
//! A packet is the frame the wire carries, not only its body: the payload
//! sits behind [`PACKET_HEADROOM`] bytes that the reliable session stamps its
//! headers into, so a message is copied into a packet once and that packet is
//! what is sent, what the retransmit window keeps, and what comes back here
//! when the frame is acked (the pool is the device session's
//! [`FrameBufs`]).

use lci_fabric::reliable::REL_DATA_OFFSET;
use lci_fabric::FrameBufs;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes in front of a packet's payload, left for the transport frame and
/// reliable-layer headers.
pub const PACKET_HEADROOM: usize = REL_DATA_OFFSET;

/// A fixed-capacity packet buffer leased from a [`PacketPool`]:
/// [`PACKET_HEADROOM`] bytes of headroom, then the payload.
pub type Packet = Box<[u8]>;

/// A pool of at most `capacity` fixed-size packet buffers.
///
/// ```
/// use lci::PacketPool;
/// let pool = PacketPool::new(2, 64, 1);
/// let a = pool.alloc().unwrap();
/// let b = pool.alloc().unwrap();
/// assert!(pool.alloc().is_none(), "exhausted: SEND-ENQ would retry");
/// pool.free(a);
/// assert!(pool.alloc().is_some());
/// # pool.free(b);
/// ```
pub struct PacketPool {
    /// Packets built and not leased.
    free: Mutex<Vec<Packet>>,
    capacity: usize,
    payload: usize,
    /// Packets leased; changed only under the `free` lock, so the free list
    /// plus this never exceeds `capacity`.
    outstanding: AtomicUsize,
}

impl PacketPool {
    /// Create a pool of at most `count` packets of `payload` bytes each. No
    /// packet is built until a lease needs it.
    ///
    /// `shards` must be positive and is otherwise unused: a pool is one free
    /// list, since one thread (its host) leases from it. The argument stays
    /// only so that callers passing [`crate::LciConfig::pool_shards`] keep
    /// compiling.
    pub fn new(count: usize, payload: usize, shards: usize) -> Self {
        assert!(count > 0 && payload > 0 && shards > 0);
        PacketPool {
            free: Mutex::new(Vec::new()),
            capacity: count,
            payload,
            outstanding: AtomicUsize::new(0),
        }
    }

    /// Most packets the pool holds, leased or free.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Payload bytes per packet.
    pub fn payload_size(&self) -> usize {
        self.payload
    }

    /// Number of packets currently leased out.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Lease a packet: a freed one, or a new zeroed one while fewer than
    /// `capacity` exist. Returns `None` when all `capacity` are leased — the
    /// caller should retry later, exactly like the paper's `packetAlloc`
    /// failing in `SEND-ENQ`.
    pub fn alloc(&self) -> Option<Packet> {
        let mut list = self.free.lock();
        let leased = self.outstanding.load(Ordering::Relaxed);
        if leased == self.capacity {
            return None;
        }
        let packet = list
            .pop()
            .unwrap_or_else(|| vec![0u8; PACKET_HEADROOM + self.payload].into_boxed_slice());
        self.outstanding.store(leased + 1, Ordering::Relaxed);
        Some(packet)
    }

    /// Return a leased packet to the free list.
    ///
    /// # Panics
    /// Panics if the packet's capacity does not match the pool's payload
    /// size (catches cross-pool frees in debug runs).
    pub fn free(&self, packet: Packet) {
        assert_eq!(
            packet.len(),
            PACKET_HEADROOM + self.payload,
            "packet returned to wrong pool"
        );
        let mut list = self.free.lock();
        list.push(packet);
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The pool as a reliable session's buffer source: a frame is built in a
/// packet and the packet comes back when the frame's lease ends.
impl FrameBufs for PacketPool {
    fn take(&self, len: usize) -> Option<Box<[u8]>> {
        assert!(
            len <= PACKET_HEADROOM + self.payload,
            "frame larger than a packet"
        );
        self.alloc()
    }

    fn give(&self, buf: Box<[u8]>) {
        self.free(buf);
    }

    fn exhausted(&self) -> bool {
        self.outstanding() >= self.capacity
    }
}

impl std::fmt::Debug for PacketPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketPool")
            .field("capacity", &self.capacity)
            .field("payload", &self.payload)
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn alloc_free_roundtrip() {
        let pool = PacketPool::new(4, 128, 2);
        assert_eq!(pool.capacity(), 4);
        assert_eq!(pool.payload_size(), 128);
        let a = pool.alloc().unwrap();
        assert_eq!(a.len(), PACKET_HEADROOM + 128);
        assert_eq!(pool.outstanding(), 1);
        pool.free(a);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let pool = PacketPool::new(2, 64, 1);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert!(pool.alloc().is_none());
        pool.free(a);
        assert!(pool.alloc().is_some());
        pool.free(b);
    }

    #[test]
    fn exhaustion_then_concurrent_free_unblocks_retry() {
        // The SEND-ENQ retry contract end to end: a thread that sees
        // exhaustion keeps retrying and succeeds as soon as any other
        // thread returns a packet — no lost wakeups, no permanent None.
        let pool = Arc::new(PacketPool::new(2, 64, 2));
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert!(pool.alloc().is_none(), "pool must start exhausted");

        let retrier = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut attempts = 0u64;
                let p = loop {
                    match pool.alloc() {
                        Some(p) => break p,
                        None => {
                            attempts += 1;
                            std::thread::yield_now();
                        }
                    }
                };
                pool.free(p);
                attempts
            })
        };
        // Give the retrier time to observe exhaustion, then free from this
        // thread.
        std::thread::sleep(std::time::Duration::from_millis(5));
        pool.free(a);
        let attempts = retrier.join().unwrap();
        assert!(attempts >= 1, "retrier should have failed at least once");
        pool.free(b);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "wrong pool")]
    fn cross_pool_free_panics() {
        let pool = PacketPool::new(1, 64, 1);
        pool.free(vec![0u8; 32].into_boxed_slice());
    }

    #[test]
    fn concurrent_alloc_free_conserves_packets() {
        let pool = Arc::new(PacketPool::new(64, 256, 8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let mut held = Vec::new();
                for i in 0..10_000 {
                    if i % 3 == 0 && !held.is_empty() {
                        pool.free(held.pop().unwrap());
                    } else if let Some(p) = pool.alloc() {
                        held.push(p);
                    }
                }
                for p in held {
                    pool.free(p);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            pool.free.lock().len() + pool.outstanding() <= pool.capacity(),
            "a pool never builds more than its capacity"
        );
        assert_eq!(pool.outstanding(), 0);
        // All 64 packets must be allocatable again.
        let mut all = Vec::new();
        while let Some(p) = pool.alloc() {
            all.push(p);
        }
        assert_eq!(all.len(), 64);
        for p in all {
            pool.free(p);
        }
    }
}
