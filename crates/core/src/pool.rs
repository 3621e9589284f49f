//! A locality-aware concurrent packet pool.
//!
//! LCI's flow control hinges on a fixed-size pool of fixed-capacity packets
//! (Section III-D of the paper): `SEND-ENQ` fails — retryably — when no
//! packet is available, which caps the injection rate at a small constant
//! times the number of hosts and guarantees the receiver's fixed set of
//! buffers cannot be overrun.
//!
//! Locality awareness follows the design the paper adopts from its reference
//! [16]: packets freed by a thread go back to that thread's shard, so a
//! packet's buffer tends to stay in the cache of the core that last touched
//! it. Allocation first tries the local shard and then steals round-robin
//! from the others.
//!
//! A packet is the frame the wire carries, not only its body: the payload
//! sits behind [`PACKET_HEADROOM`] bytes that the reliable session stamps its
//! headers into, so a message is copied into a packet once and that packet is
//! what is sent, what the retransmit window keeps, and what comes back here
//! when the frame is acked (the pool is the device session's
//! [`FrameBufs`]).

use crossbeam::utils::CachePadded;
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

/// Concurrent pool of fixed-size packet buffers.
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
    shards: Vec<CachePadded<Mutex<Vec<Packet>>>>,
    capacity: usize,
    payload: usize,
    outstanding: AtomicUsize,
}

thread_local! {
    static SHARD_HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

static NEXT_HINT: AtomicUsize = AtomicUsize::new(0);

fn shard_hint(n: usize) -> usize {
    SHARD_HINT.with(|h| {
        let mut v = h.get();
        if v == usize::MAX {
            v = NEXT_HINT.fetch_add(1, Ordering::Relaxed);
            h.set(v);
        }
        v % n
    })
}

impl PacketPool {
    /// Create a pool of `count` packets of `payload` bytes each, spread over
    /// `shards` locality shards (typically the number of threads that will
    /// use the pool).
    pub fn new(count: usize, payload: usize, shards: usize) -> Self {
        assert!(count > 0 && payload > 0 && shards > 0);
        let mut pools: Vec<Vec<Packet>> = (0..shards).map(|_| Vec::new()).collect();
        for i in 0..count {
            pools[i % shards].push(vec![0u8; PACKET_HEADROOM + payload].into_boxed_slice());
        }
        PacketPool {
            shards: pools
                .into_iter()
                .map(|v| CachePadded::new(Mutex::new(v)))
                .collect(),
            capacity: count,
            payload,
            outstanding: AtomicUsize::new(0),
        }
    }

    /// Total number of packets in the pool.
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

    /// Lease a packet, preferring the calling thread's shard. Returns `None`
    /// when the pool is exhausted — the caller should retry later, exactly
    /// like the paper's `packetAlloc` failing in `SEND-ENQ`.
    pub fn alloc(&self) -> Option<Packet> {
        let n = self.shards.len();
        let home = shard_hint(n);
        for i in 0..n {
            let idx = (home + i) % n;
            // try_lock: never spin on a contended shard when we can steal.
            if let Some(mut shard) = self.shards[idx].try_lock() {
                if let Some(p) = shard.pop() {
                    self.outstanding.fetch_add(1, Ordering::Relaxed);
                    return Some(p);
                }
            }
        }
        // Second pass with blocking locks to distinguish "contended" from
        // "empty" before reporting exhaustion.
        for i in 0..n {
            let idx = (home + i) % n;
            if let Some(p) = self.shards[idx].lock().pop() {
                self.outstanding.fetch_add(1, Ordering::Relaxed);
                return Some(p);
            }
        }
        None
    }

    /// Return a packet to the calling thread's shard.
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
        let home = shard_hint(self.shards.len());
        self.shards[home].lock().push(packet);
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
        // thread (a different shard hint than the retrier's).
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
