//! Vertex label values: bit-packable, and stored where a `&` reference can
//! update them.
//!
//! Labels live in `Cell<u64>` slots: a host's vertex state is built, used
//! and dropped on its host thread, its one writer, so a read-modify-write
//! ([`LabelVec::reduce_with`], [`LabelVec::swap`], [`BitSet::insert`]) is a
//! plain load, the operation and a plain store, and the compiler keeps the
//! slots on that thread (a `Cell` is not `Sync`). Labels serialize to fixed
//! widths for the wire. [`BitSet`] holds the marks that say which labels
//! moved.

use std::cell::Cell;
use std::ops::Range;

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

/// A vector of label slots, owned by one thread.
pub struct LabelVec {
    slots: Vec<Cell<u64>>,
}

impl LabelVec {
    /// `n` slots initialized to `init`.
    pub fn new<L: Label>(n: usize, init: L) -> LabelVec {
        LabelVec {
            slots: vec![Cell::new(init.to_bits()); n],
        }
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
        L::from_bits(self.slots[i].get())
    }

    /// Overwrite slot `i`.
    pub fn set<L: Label>(&self, i: usize, v: L) {
        self.slots[i].set(v.to_bits());
    }

    /// Replace slot `i` with `v`, returning the previous value. Used by
    /// consuming operators (PageRank takes its residual exactly once).
    pub fn swap<L: Label>(&self, i: usize, v: L) -> L {
        L::from_bits(self.slots[i].replace(v.to_bits()))
    }

    /// Serialize every slot's raw bits, 8 little-endian bytes per slot.
    /// Checkpointing uses the bit representation (not the wire encoding)
    /// so a restored vector is bit-identical regardless of label type.
    pub fn save_bits(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.slots.len() * 8);
        for s in &self.slots {
            out.extend_from_slice(&s.get().to_le_bytes());
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
            s.set(u64::from_le_bytes(chunk.try_into().expect("chunks_exact")));
        }
        true
    }

    /// Apply `reduce(cur, v)`; returns `true` if the stored value changed.
    pub fn reduce_with<L: Label>(&self, i: usize, v: L, reduce: impl FnOnce(L, L) -> L) -> bool {
        let slot = &self.slots[i];
        let cur = slot.get();
        let new = reduce(L::from_bits(cur), v).to_bits();
        let changed = new != cur;
        if changed {
            slot.set(new);
        }
        changed
    }
}

/// A set of slot indices, 64 to a word. A word that reads zero says none of
/// its 64 is in, so the words are their own summary: a walk costs a load per
/// word and a step per member, and the marks of a hundred thousand labels fit
/// L1 beside the per-edge loop that sets them.
pub struct BitSet {
    words: Vec<Cell<u64>>,
    len: usize,
}

/// The bits of a word below position `i` (all of them from 64 up).
fn below(i: usize) -> u64 {
    if i < 64 { (1 << i) - 1 } else { !0 }
}

impl BitSet {
    /// The empty set over `0..len`, owned by one thread as a [`LabelVec`]
    /// is.
    pub fn new(len: usize) -> BitSet {
        BitSet { words: vec![Cell::new(0); len.div_ceil(64)], len }
    }

    /// Put `i` in: a load and a store. Inlined into the engines' per-edge
    /// loops, which are instantiated in other crates.
    #[inline]
    pub fn insert(&self, i: usize) {
        let word = &self.words[i / 64];
        word.set(word.get() | 1 << (i % 64));
    }

    /// Is `i` in? Inlined for the same reason as [`Self::insert`].
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64].get() & 1 << (i % 64) != 0
    }

    /// How many are in: a population count per word.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.get().count_ones() as usize).sum()
    }

    /// Hand `f` every member inside `range`, ascending; with `take` they
    /// leave the set, a word at a time, before `f` sees them.
    pub fn walk(&self, range: Range<usize>, take: bool, mut f: impl FnMut(usize)) {
        for w in range.start / 64..range.end.div_ceil(64) {
            let (word, base) = (&self.words[w], w * 64);
            let all = word.get();
            let mut bits =
                all & below(range.end - base) & !below(range.start.saturating_sub(base));
            if take && bits != 0 {
                word.set(all & !bits);
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
            word.set(bits);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let v = LabelVec::new(4, u32::MAX);
        assert!(v.reduce_with(0, 5u32, |a, b| a.min(b)));
        assert!(!v.reduce_with(0, 9u32, |a, b| a.min(b)), "9 > 5: no change");
        assert!(v.reduce_with(0, 2u32, |a, b| a.min(b)));
        assert_eq!(v.get::<u32>(0), 2);
        assert_eq!(v.get::<u32>(1), u32::MAX);
    }

    #[test]
    fn label_vec_reduce_add_f32() {
        let v = LabelVec::new(1, 0.0f32);
        for _ in 0..10 {
            v.reduce_with(0, 0.5f32, |a, b| a + b);
        }
        assert_eq!(v.get::<f32>(0), 5.0);
    }
}
