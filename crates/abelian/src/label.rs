//! Vertex label values: bit-packable, atomically reducible.
//!
//! Labels live in `AtomicU64` slots so that compute threads *may* apply
//! reductions concurrently — not because they always do. A [`LabelVec`] is
//! told at construction whether more than one thread can write it at a time
//! (`shared`), and this module is the one place that acts on the answer: a
//! shared vector's read-modify-writes ([`LabelVec::reduce_with`],
//! [`LabelVec::swap`]) are a compare-and-swap loop and an atomic exchange; a
//! single-writer vector's are a load, the operation and a store, with no
//! locked instruction — the same values in the same order either way. Labels
//! serialize to fixed widths for the wire. [`BitSet`], the marks that say
//! which labels moved, follows the same rule.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// A value that can live in a vertex label slot and travel on the wire.
pub trait Label: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Serialized width in bytes (4 or 8).
    const WIRE_BYTES: usize;

    /// Pack into a u64 slot.
    fn to_bits(self) -> u64;
    /// Unpack from a u64 slot.
    fn from_bits(bits: u64) -> Self;

    /// Append the wire encoding to `out`.
    fn write(self, out: &mut Vec<u8>) {
        let b = self.to_bits().to_le_bytes();
        out.extend_from_slice(&b[..Self::WIRE_BYTES]);
    }

    /// Decode from the first `WIRE_BYTES` of `buf`.
    fn read(buf: &[u8]) -> Self {
        let mut b = [0u8; 8];
        b[..Self::WIRE_BYTES].copy_from_slice(&buf[..Self::WIRE_BYTES]);
        Self::from_bits(u64::from_le_bytes(b))
    }
}

impl Label for u32 {
    const WIRE_BYTES: usize = 4;
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
}

impl Label for u64 {
    const WIRE_BYTES: usize = 8;
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl Label for f32 {
    const WIRE_BYTES: usize = 4;
    fn to_bits(self) -> u64 {
        self.to_bits() as u64
    }
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

/// A vector of atomically updatable label slots.
pub struct LabelVec {
    slots: Vec<AtomicU64>,
    /// Whether more than one thread may write a slot at the same time.
    shared: bool,
}

impl LabelVec {
    /// `n` slots initialized to `init`. `shared` says whether several threads
    /// may call [`Self::reduce_with`] or [`Self::swap`] on a slot
    /// concurrently; when `false` the caller guarantees one writer at a time
    /// (writers that hand over through a join or a lock are one at a time),
    /// and those two methods issue no locked instruction.
    pub fn new<L: Label>(n: usize, init: L, shared: bool) -> LabelVec {
        LabelVec {
            slots: (0..n).map(|_| AtomicU64::new(init.to_bits())).collect(),
            shared,
        }
    }

    /// Whether this vector was built for concurrent writers.
    pub(crate) fn is_shared(&self) -> bool {
        self.shared
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Read slot `i`.
    pub fn get<L: Label>(&self, i: usize) -> L {
        L::from_bits(self.slots[i].load(Ordering::Acquire))
    }

    /// Overwrite slot `i`.
    pub fn set<L: Label>(&self, i: usize, v: L) {
        self.slots[i].store(v.to_bits(), Ordering::Release);
    }

    /// Replace slot `i` with `v`, returning the previous value — atomically
    /// when shared. Used by consuming operators (PageRank takes its residual
    /// exactly once even while neighbors keep adding to it).
    pub fn swap<L: Label>(&self, i: usize, v: L) -> L {
        let slot = &self.slots[i];
        let old = if self.shared {
            slot.swap(v.to_bits(), Ordering::AcqRel)
        } else {
            // Single writer: nothing can land between the load and the
            // store, and there is no other thread for an ordering to pair
            // with.
            let old = slot.load(Ordering::Relaxed);
            slot.store(v.to_bits(), Ordering::Relaxed);
            old
        };
        L::from_bits(old)
    }

    /// Serialize every slot's raw bits, 8 little-endian bytes per slot.
    /// Checkpointing uses the bit representation (not the wire encoding)
    /// so a restored vector is bit-identical regardless of label type.
    pub fn save_bits(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.slots.len() * 8);
        for s in &self.slots {
            out.extend_from_slice(&s.load(Ordering::Acquire).to_le_bytes());
        }
        out
    }

    /// Overwrite every slot from [`LabelVec::save_bits`] output. Returns
    /// `false` (without touching any slot) when the byte length does not
    /// match this vector's slot count.
    pub fn restore_bits(&self, bytes: &[u8]) -> bool {
        if bytes.len() != self.slots.len() * 8 {
            return false;
        }
        for (s, chunk) in self.slots.iter().zip(bytes.chunks_exact(8)) {
            s.store(
                u64::from_le_bytes(chunk.try_into().expect("chunks_exact")),
                Ordering::Release,
            );
        }
        true
    }

    /// Apply `reduce(cur, v)` — atomically when shared; returns `true` if the
    /// stored value changed. `reduce` must be idempotent-safe under retries
    /// (pure).
    pub fn reduce_with<L: Label>(
        &self,
        i: usize,
        v: L,
        mut reduce: impl FnMut(L, L) -> L,
    ) -> bool {
        let slot = &self.slots[i];
        if !self.shared {
            // Single writer (see `swap`): the compare-and-swap below could
            // never fail, so it is a plain store.
            let cur = slot.load(Ordering::Relaxed);
            let new = reduce(L::from_bits(cur), v).to_bits();
            let changed = new != cur;
            if changed {
                slot.store(new, Ordering::Relaxed);
            }
            return changed;
        }
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            let new = reduce(L::from_bits(cur), v);
            if new.to_bits() == cur {
                return false;
            }
            match slot.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
    }
}

/// A set of slot indices, 64 to a word. A word that reads zero says none of
/// its 64 is in, so the words are their own summary: a walk costs a load per
/// word and a step per member, and the marks of a hundred thousand labels fit
/// L1 beside the per-edge loop that sets them.
pub struct BitSet {
    words: Vec<AtomicU64>,
    len: usize,
    /// Whether more than one thread may insert at the same time.
    shared: bool,
}

/// The bits of a word below position `i` (all of them from 64 up).
fn below(i: usize) -> u64 {
    if i < 64 { (1 << i) - 1 } else { !0 }
}

impl BitSet {
    /// The empty set over `0..len`; `shared` as for [`LabelVec::new`], for
    /// [`Self::insert`].
    pub fn new(len: usize, shared: bool) -> BitSet {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        BitSet { words, len, shared }
    }

    /// Put `i` in: a load and a store with a single writer; when shared, a
    /// test and then a locked `fetch_or` only if `i` was out — once per member
    /// between two takes, not once per call. Inlined into the engines' per-edge
    /// loops, which are instantiated in other crates.
    #[inline]
    pub fn insert(&self, i: usize) {
        let (word, bit) = (&self.words[i / 64], 1 << (i % 64));
        let cur = word.load(Ordering::Relaxed);
        if !self.shared {
            word.store(cur | bit, Ordering::Relaxed);
        } else if cur & bit == 0 {
            // Release: pairs with the walk's Acquire load.
            word.fetch_or(bit, Ordering::Release);
        }
    }

    /// Is `i` in? Inlined for the same reason as [`Self::insert`].
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64].load(Ordering::Acquire) & 1 << (i % 64) != 0
    }

    /// How many are in: a population count per word.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.load(Ordering::Acquire).count_ones() as usize).sum()
    }

    /// Hand `f` every member inside `range`, ascending; with `take` they
    /// leave the set, a word at a time, before `f` sees them. Taking is a
    /// plain store: only for the thread that owns the set while nobody
    /// inserts.
    pub fn walk(&self, range: Range<usize>, take: bool, mut f: impl FnMut(usize)) {
        for w in range.start / 64..range.end.div_ceil(64) {
            let (word, base) = (&self.words[w], w * 64);
            let all = word.load(Ordering::Acquire);
            let mut bits =
                all & below(range.end - base) & !below(range.start.saturating_sub(base));
            if take && bits != 0 {
                word.store(all & !bits, Ordering::Relaxed);
            }
            while bits != 0 {
                f(base + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// One byte per index, 1 for a member: the checkpoint layout, which
    /// predates the bits and outlives them.
    pub fn save_bytes(&self) -> Vec<u8> {
        let mut out = vec![0; self.len];
        self.walk(0..self.len, false, |i| out[i] = 1);
        out
    }

    /// Become the set [`Self::save_bytes`] wrote. Returns `false` (nothing
    /// touched) unless `bytes` has one byte per index.
    pub fn restore_bytes(&self, bytes: &[u8]) -> bool {
        if bytes.len() != self.len {
            return false;
        }
        for (word, chunk) in self.words.iter().zip(bytes.chunks(64)) {
            let bits = chunk.iter().rev().fold(0, |acc, &b| acc << 1 | (b != 0) as u64);
            word.store(bits, Ordering::Release);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn u32_wire_roundtrip() {
        let mut out = Vec::new();
        42u32.write(&mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(u32::read(&out), 42);
    }

    #[test]
    fn f32_wire_roundtrip() {
        let mut out = Vec::new();
        (0.15f32).write(&mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(f32::read(&out), 0.15);
    }

    #[test]
    fn u64_wire_roundtrip() {
        let mut out = Vec::new();
        (u64::MAX - 3).write(&mut out);
        assert_eq!(out.len(), 8);
        assert_eq!(u64::read(&out), u64::MAX - 3);
    }

    #[test]
    fn label_vec_reduce_min() {
        let v = LabelVec::new(4, u32::MAX, false);
        assert!(v.reduce_with(0, 5u32, |a, b| a.min(b)));
        assert!(!v.reduce_with(0, 9u32, |a, b| a.min(b)), "9 > 5: no change");
        assert!(v.reduce_with(0, 2u32, |a, b| a.min(b)));
        assert_eq!(v.get::<u32>(0), 2);
        assert_eq!(v.get::<u32>(1), u32::MAX);
    }

    #[test]
    fn label_vec_reduce_add_f32() {
        let v = LabelVec::new(1, 0.0f32, false);
        for _ in 0..10 {
            v.reduce_with(0, 0.5f32, |a, b| a + b);
        }
        assert_eq!(v.get::<f32>(0), 5.0);
    }

    proptest! {
        /// The mode picks instructions, nothing else: one thread drives a
        /// shared and a single-writer vector through the same random sequence
        /// of every writing method — min over u32 in the low slots, f32 sums
        /// (with addends that leave the sum where it is) in the high ones —
        /// and every return value and every slot's bits agree.
        #[test]
        fn shared_and_single_writer_agree_step_by_step(
            steps in prop::collection::vec((0u8..5, 0usize..4, any::<u32>()), 1..300),
        ) {
            let (shared, single) = (LabelVec::new(8, 0u64, true), LabelVec::new(8, 0u64, false));
            let both = [&shared, &single];
            for (step, (op, i, raw)) in steps.into_iter().enumerate() {
                let (low, add) = (raw % 16, [0.0f32, 1e-9, 0.25, 3.0][raw as usize % 4]);
                let [a, b] = both.map(|v| match op {
                    0 => v.reduce_with(i, low, |x: u32, y| x.min(y)) as u64,
                    1 => v.reduce_with(4 + i, add, |x: f32, y| x + y) as u64,
                    2 => v.swap(i, raw) as u64,
                    3 => v.swap(4 + i, 0.0f32).to_bits() as u64,
                    _ => {
                        v.set(i, raw);
                        0
                    }
                });
                prop_assert_eq!(a, b, "step {} (op {}) returned", step, op);
                prop_assert_eq!(shared.save_bits(), single.save_bits(), "after step {}", step);
            }
        }
    }

    /// Four threads, started together, each folding `value(thread, i)` for
    /// `i` from `n` down to 0 into the one slot of a shared vector.
    fn hammer<L: Label>(n: u32, init: L, value: fn(u32, u32) -> L, reduce: fn(L, L) -> L) -> L {
        let v = LabelVec::new(1, init, true);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (v, start) = (&v, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in (0..n).rev() {
                        v.reduce_with(0, value(t, i), reduce);
                    }
                });
            }
        });
        v.get(0)
    }

    #[test]
    fn concurrent_min_reduction_converges() {
        assert_eq!(hammer(1000, u32::MAX, |t, i| t * 1000 + i, |a, b| a.min(b)), 0);
    }

    /// The case a lost update breaks: every add must land (the sums stay
    /// exact in f32, whatever the interleaving). Long enough that the threads
    /// really overlap: tried on a single-writer vector, four runs in five lost
    /// a quarter of the adds or more (at 1 000 per thread, none did).
    #[test]
    fn concurrent_f32_adds_lose_nothing() {
        assert_eq!(hammer(100_000, 0.0f32, |_, _| 1.0, |a, b| a + b), 400_000.0);
    }
}
