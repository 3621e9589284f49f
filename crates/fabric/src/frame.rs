//! Wire-frame integrity: checksummed, sequence-numbered transport frames.
//!
//! The fabric's adversarial faults ([`Fault::Corrupt`](crate::Fault),
//! [`Fault::Duplicate`](crate::Fault), [`Fault::Truncate`](crate::Fault))
//! deliver mangled or repeated *ghost* copies of real sends, and the lossy
//! faults ([`Fault::Drop`](crate::Fault), [`Fault::Blackhole`](crate::Fault))
//! eat originals outright. This module gives every consumer the integrity
//! tools — the recovery tools live in [`crate::reliable`] on top of it:
//!
//! * a 16-byte frame prefix `[seq: u64 LE][len: u32 LE][crc32: u32 LE]`
//!   prepended to the payload, with the CRC computed over the 64-bit message
//!   header, the sequence number, the declared body length, and the body —
//!   any bit-flip or truncation anywhere in header, prefix, or body fails
//!   [`open`]. The explicit length makes structural damage (truncation,
//!   trailing garbage after a declared-empty body) detectable *before* the
//!   checksum pass, so [`FrameError`] distinguishes it from corruption;
//! * a per-source [`SeqGate`] that admits each sequence number exactly once,
//!   rejecting bit-exact duplicates that necessarily pass the CRC, with a
//!   bounded above-watermark window so pathological reorder/loss patterns
//!   cannot grow the gate without limit.
//!
//! The CRC is CRC-32/IEEE (polynomial `0xEDB88320`, reflected). Its
//! generator polynomial has Hamming distance ≥ 2 at any frame length, so
//! *every* single-bit flip is detected — a property the hardening proptests
//! assert exhaustively on small frames.
//!
//! Two routines compute it and [`Crc32::update`] alone picks one: `sliced`
//! (table lookups, 16 bytes a round) runs anywhere; `clmul::fold` (carry-less
//! multiplication, 64 bytes a step) takes inputs of 64 bytes or more on an
//! x86-64 CPU that reports `pclmulqdq`. Both leave the same register after
//! the same bytes — the unit tests hold each to a bit-at-a-time oracle — so
//! which one ran never shows on the wire or in a checkpoint.

use std::collections::BTreeSet;

/// Bytes of frame prefix prepended to every framed payload.
pub const FRAME_OVERHEAD: usize = 16;

/// Default cap on a [`SeqGate`]'s above-watermark admissions.
pub const DEFAULT_GATE_WINDOW: u64 = 4096;

/// Input bytes [`sliced`] folds per full table round.
const CRC_STRIDE: usize = 16;

/// CRC-32/IEEE slicing tables, generated at compile time. `CRC_TABLES[0]` is
/// the classic one-byte table; `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which is what lets [`sliced`] fold
/// [`CRC_STRIDE`] input bytes per round with independent lookups.
const CRC_TABLES: [[u32; 256]; CRC_STRIDE] = {
    let mut t = [[0u32; 256]; CRC_STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Incremental CRC-32/IEEE (reflected 0xEDB88320) over multiple byte
/// slices — the checksum of the frame prefix, exported so other sealed
/// formats (checkpoints) share the one implementation. Holds the raw
/// register: a function of the bytes folded in, not of how `update` got them.
#[derive(Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(0xFFFF_FFFF)
    }
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub fn new() -> Self {
        Crc32::default()
    }
    /// Fold `bytes` into the checksum: by carry-less multiplication where the
    /// CPU has it and 64 bytes or more are on hand (what the four lanes of
    /// `clmul::fold` hold before its first step; it is already the faster
    /// routine there), otherwise, and for the tail it leaves, by table.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: all `clmul::fold` requires is a CPU that executes
            // `pclmulqdq`, which the detection macro has just confirmed.
            let (crc, tail) = unsafe { clmul::fold(self.0, bytes) };
            self.0 = sliced(crc, tail);
            return;
        }
        self.0 = sliced(self.0, bytes);
    }
    /// The CRC-32 of everything folded in so far.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// The portable routine: table rounds of 16 bytes, then of 4 (a frame's
/// 20-byte prefix block is one of each), then byte steps.
fn sliced(mut crc: u32, mut bytes: &[u8]) -> u32 {
    for stride in [CRC_STRIDE, 4] {
        let mut chunks = bytes.chunks_exact(stride);
        for c in &mut chunks {
            // The running CRC only mixes into the first four bytes; every
            // byte then indexes the table for its distance from the end of
            // the chunk, so the lookups do not depend on each other.
            let head = crc.to_le_bytes();
            crc = 0;
            for (i, &b) in c.iter().enumerate() {
                let b = if i < 4 { b ^ head[i] } else { b };
                crc ^= CRC_TABLES[stride - 1 - i][b as usize];
            }
        }
        bytes = chunks.remainder();
    }
    for &b in bytes {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply routine (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009): a 16-byte
/// lane times x^d mod P is the same lane `d` bits further up the message, so
/// lanes fold onto later input with two multiplies each and no table.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Least input [`fold`] takes: its four 16-byte lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// `a` moved `d` bits up the message, plus `b`; `k` is x^(d+32) for `a`'s
    /// low half (the earlier bytes) and x^(d-32) for its high half.
    #[target_feature(enable = "pclmulqdq")]
    fn shift_onto(a: __m128i, k: __m128i, b: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(b, _mm_xor_si128(lo, hi))
    }

    /// Fold every whole 16-byte block of `bytes`, [`MIN_LEN`] or more, into
    /// `crc`: the register and the tail left over. All safe code — lanes are
    /// built with `from_le_bytes`, never loaded through a pointer.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let lane = |b: &[u8]| {
            let v = u128::from_le_bytes(b.try_into().expect("16 bytes"));
            _mm_set_epi64x((v >> 64) as i64, v as i64)
        };
        // x^n mod P (and, for Barrett, x^64 / P and P), bit-reflected like the
        // register and shifted up one: the product of two reflected operands
        // comes out one bit low.
        let by_512 = _mm_set_epi64x(0x1_C6E4_1596, 0x1_5444_2BD4); // n = 480, 544
        let by_128 = _mm_set_epi64x(0x0_CCAA_009E, 0x1_7519_97D0); // n = 96, 160
        let by_64 = _mm_set_epi64x(0, 0x1_63CD_6124);
        let mu_p = _mm_set_epi64x(0x1_F701_1641, 0x1_DB71_0641);
        let mut x = [0, 16, 32, 48].map(|at| lane(&bytes[at..at + 16]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let mut steps = bytes[MIN_LEN..].chunks_exact(MIN_LEN);
        for s in &mut steps {
            for (x, b) in x.iter_mut().zip(s.chunks_exact(16)) {
                *x = shift_onto(*x, by_512, lane(b));
            }
        }
        let mut blocks = steps.remainder().chunks_exact(16);
        let mut acc = x[0];
        for b in x[1..].iter().copied().chain((&mut blocks).map(lane)) {
            acc = shift_onto(acc, by_128, b);
        }
        // 128 bits -> 96 -> 64, then Barrett: the 32 left are the register.
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let hi = _mm_srli_si128(acc, 8);
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, by_128, 0x10), hi);
        let (lo, hi) = (_mm_and_si128(acc, low32), _mm_srli_si128(acc, 4));
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(lo, by_64, 0x00), hi);
        let t = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), mu_p, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_p, 0x00);
        let crc = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, t), 4)) as u32;
        (crc, blocks.remainder())
    }
}

fn frame_crc(header: u64, seq: u64, len: u32, body: &[u8]) -> u32 {
    // Header, sequence number and length go in as one block: a 16-byte and a
    // 4-byte table round, not twenty byte steps each waiting on the last.
    let mut prefix = [0u8; 20];
    prefix[..8].copy_from_slice(&header.to_le_bytes());
    prefix[8..16].copy_from_slice(&seq.to_le_bytes());
    prefix[16..].copy_from_slice(&len.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&prefix);
    crc.update(body);
    crc.finish()
}

/// Why [`open`] rejected a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Payload shorter than the frame prefix (truncated at or below the
    /// prefix — including exactly prefix-sized cuts of a framed body).
    TooShort,
    /// The declared body length disagrees with the bytes actually present
    /// (truncated body, or trailing bytes after a declared-empty body).
    BadLength,
    /// Stored CRC does not match the recomputed one (corruption).
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "frame shorter than prefix"),
            FrameError::BadLength => write!(f, "frame length field mismatch"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

/// Stamp the frame prefix into `frame[..FRAME_OVERHEAD]`, checksumming
/// `header`, `seq`, the body length, and the body already present in
/// `frame[FRAME_OVERHEAD..]`. Writing the body first and stamping in place
/// lets packet-pool users frame without a copy.
///
/// # Panics
/// Panics if `frame.len() < FRAME_OVERHEAD` or the body exceeds `u32::MAX`
/// bytes.
pub fn stamp(header: u64, seq: u64, frame: &mut [u8]) {
    let len = u32::try_from(frame.len() - FRAME_OVERHEAD).expect("body fits u32");
    let crc = frame_crc(header, seq, len, &frame[FRAME_OVERHEAD..]);
    frame[..8].copy_from_slice(&seq.to_le_bytes());
    frame[8..12].copy_from_slice(&len.to_le_bytes());
    frame[12..16].copy_from_slice(&crc.to_le_bytes());
}

/// Build a framed payload (prefix + copy of `body`) in a fresh buffer.
pub fn seal(header: u64, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + body.len());
    frame.extend_from_slice(&[0u8; FRAME_OVERHEAD]);
    frame.extend_from_slice(body);
    stamp(header, seq, &mut frame);
    frame
}

/// Verify a framed payload against its message `header`; on success return
/// the sequence number and the body slice. Never panics, whatever the input.
/// Structural checks (prefix present, declared length matches the bytes on
/// hand) run before the checksum so their rejections are distinguishable.
pub fn open(header: u64, payload: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    if payload.len() < FRAME_OVERHEAD {
        return Err(FrameError::TooShort);
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
    let stored = u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes"));
    let body = &payload[FRAME_OVERHEAD..];
    if len as usize != body.len() {
        return Err(FrameError::BadLength);
    }
    if frame_crc(header, seq, len, body) != stored {
        return Err(FrameError::BadChecksum);
    }
    Ok((seq, body))
}

/// Exactly-once admission gate for one source's frame sequence numbers.
///
/// Tracks a low-watermark `next` (everything below it was admitted) plus the
/// sparse set of admitted numbers at or above it, so out-of-order arrival —
/// which the fabric's `Reorder` fault produces legitimately — is admitted
/// while any re-delivery is rejected. The pending set stays small because
/// the watermark compacts every contiguous run, and it is hard-capped at a
/// configurable `window` above the watermark: a frame further ahead than
/// that (only possible under pathological loss/reorder, or an attacker
/// forging sequence numbers) is dropped and counted
/// (`fabric.frame.window_overflow`) instead of growing the set without
/// bound.
#[derive(Debug)]
pub struct SeqGate {
    next: u64,
    pending: BTreeSet<u64>,
    window: u64,
}

impl Default for SeqGate {
    fn default() -> Self {
        SeqGate {
            next: 0,
            pending: BTreeSet::new(),
            window: DEFAULT_GATE_WINDOW,
        }
    }
}

impl SeqGate {
    /// A gate that has admitted nothing, capped at
    /// [`DEFAULT_GATE_WINDOW`] above-watermark admissions.
    pub fn new() -> Self {
        SeqGate::default()
    }

    /// Builder-style override of the above-watermark cap (must be ≥ 1).
    pub fn with_window(mut self, window: u64) -> Self {
        assert!(window >= 1, "gate window must be >= 1");
        self.window = window;
        self
    }

    /// Admit `seq` if it has never been admitted before and lies within
    /// `window` of the low watermark. Returns `false` for duplicates and
    /// for beyond-window frames (the latter also bump
    /// `fabric.frame.window_overflow` in the process-wide table; a gate that
    /// belongs to a host counts there, with [`SeqGate::admit_in`]).
    pub fn admit(&mut self, seq: u64) -> bool {
        self.admit_in(seq, lci_trace::global())
    }

    /// [`SeqGate::admit`], counting a beyond-window frame in `table`: the
    /// receiving host's table, for a gate that belongs to one.
    pub fn admit_in(&mut self, seq: u64, table: &lci_trace::Registry) -> bool {
        // In order with nothing parked above the watermark — every frame of
        // a loss-free run — needs no set at all.
        if seq == self.next && self.pending.is_empty() {
            self.next += 1;
            return true;
        }
        if seq < self.next {
            return false;
        }
        if seq - self.next >= self.window {
            table.incr(lci_trace::Counter::FabricFrameWindowOverflow);
            return false;
        }
        if !self.pending.insert(seq) {
            return false;
        }
        while self.pending.remove(&self.next) {
            self.next += 1;
        }
        true
    }

    /// Number of admitted sequence numbers still above the watermark
    /// (diagnostics; bounded by `window`).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The low watermark: every sequence number below it was admitted, and
    /// `watermark()` itself is the next in-order number expected. This is
    /// what a cumulative ack reports.
    pub fn watermark(&self) -> u64 {
        self.next
    }

    /// Selective-ack bitmap over the 32 numbers just above the watermark:
    /// bit `i` set ⇔ `watermark() + 1 + i` was admitted out of order.
    /// (`watermark()` itself can never be pending — it would have
    /// compacted.)
    pub fn mask_above(&self) -> u32 {
        let mut mask = 0u32;
        for &s in self.pending.range(self.next + 1..self.next + 33) {
            mask |= 1 << (s - self.next - 1);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_in_place_and_sealed() {
        let header = 0xDEAD_BEEF_0BAD_F00D;
        let body = b"the quick brown fox";
        let framed = seal(header, 42, body);
        assert_eq!(framed.len(), FRAME_OVERHEAD + body.len());
        let (seq, got) = open(header, &framed).expect("valid frame");
        assert_eq!(seq, 42);
        assert_eq!(got, body);

        // Empty body frames too.
        let empty = seal(header, 7, &[]);
        assert_eq!(open(header, &empty), Ok((7, &[][..])));
    }

    /// Bit-at-a-time CRC-32/IEEE, register to register: the oracle for both
    /// routines behind [`Crc32::update`].
    fn bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !bitwise(!0, bytes)
    }

    fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(bytes);
        crc.finish()
    }

    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 11) as u8)
            .collect()
    }

    #[test]
    fn sliced_crc_equals_the_bitwise_reference_at_every_length_and_offset() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "CRC-32/IEEE check value");
        // Every length through five 64-byte steps, so every combination of
        // lane steps, single-lane blocks and table tail (and everything under
        // the threshold), at every start offset within a block of the backing
        // buffer; then the lengths the wire and the checkpoints really carry.
        let backing = noise((1 << 20) + 16);
        let short = (0..16).flat_map(|off| (0..=400).map(move |len| (off, len)));
        let long = [(0, 4096), (3, 4129), (5, 65_536 + 33), (1, 1 << 20)];
        for (off, len) in short.chain(long) {
            let s = &backing[off..off + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "offset {off}, length {len}");
        }
    }

    /// `update` reaches only one routine for a given length on a given CPU;
    /// this calls both directly, so a machine without the instruction still
    /// tests the tables and one with it still tests their main loop on long
    /// inputs. Registers are compared, from several starting registers.
    #[test]
    fn portable_and_folded_routines_leave_the_register_the_oracle_does() {
        let backing = noise(65_536 + 33 + 16);
        let lens = (64..=400)
            .step_by(16)
            .chain([77, 127, 4096, 4129, 65_536 + 33]);
        for (len, off) in lens.flat_map(|len| (0..16).map(move |off| (len, off))) {
            let s = &backing[off..off + len];
            for start in [!0, 0, 0xDEAD_BEEF, (len as u32).wrapping_mul(0x9E37_79B1)] {
                assert_eq!(
                    sliced(start, s),
                    bitwise(start, s),
                    "sliced: offset {off}, length {len}"
                );
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("pclmulqdq") {
                    let (blocks, tail) = s.split_at(len & !15);
                    // SAFETY: the instruction was detected on the line above.
                    let got = unsafe { clmul::fold(start, s) };
                    assert_eq!(
                        got,
                        (bitwise(start, blocks), tail),
                        "folded: offset {off}, length {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc_folded_across_any_split_equals_one_pass() {
        let input = noise(80);
        let whole = crc32_bitwise(&input);
        for cut in 0..=input.len() {
            let mut crc = Crc32::new();
            crc.update(&input[..cut]);
            crc.update(&input[cut..]);
            assert_eq!(crc.finish(), whole, "split at {cut}");
        }
    }

    proptest! {
        /// The same across pieces long enough to change routine mid-stream:
        /// a buffer of up to 8 KiB cut at two random points.
        #[test]
        fn crc_of_three_pieces_equals_one_pass(
            input in prop::collection::vec(any::<u8>(), 0..8193),
            cuts in (any::<u16>(), any::<u16>()),
        ) {
            let (a, b) = (cuts.0 as usize % (input.len() + 1), cuts.1 as usize % (input.len() + 1));
            let (a, b) = (a.min(b), a.max(b));
            let mut crc = Crc32::new();
            for piece in [&input[..a], &input[a..b], &input[b..]] {
                crc.update(piece);
            }
            prop_assert_eq!(crc.finish(), crc32_bitwise(&input), "cuts at {} and {}", a, b);
        }
    }

    #[test]
    fn sealed_frame_bytes_are_the_parent_commits() {
        // Prefix bytes recorded from `seal` before the CRC was table-sliced
        // and the frame built in place: the wire format did not move.
        let body: Vec<u8> = (0..61u32).map(|i| (i * 37 + 11) as u8).collect();
        let framed = seal(0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210, &body);
        assert_eq!(
            framed[..FRAME_OVERHEAD],
            [
                0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, // seq
                0x3d, 0x00, 0x00, 0x00, // len
                0x65, 0xdb, 0x03, 0xfe, // crc32
            ]
        );
        assert_eq!(framed[FRAME_OVERHEAD..], body[..]);
    }

    #[test]
    fn long_frame_and_bulk_crc_are_the_parent_commits() {
        // Recorded while inputs of these lengths still went through the
        // tables: the carry-less-multiply routine moved no bit either.
        let framed = seal(0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210, &noise(4096));
        assert_eq!(
            framed[..FRAME_OVERHEAD],
            [
                0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, // seq
                0x00, 0x10, 0x00, 0x00, // len
                0x44, 0x7c, 0xdd, 0x8d, // crc32
            ]
        );
        assert_eq!(crc32(&noise(1 << 20)), 0x5EC9_51A2);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let header = 0x1234_5678_9ABC_DEF0;
        let framed = seal(header, 3, b"payload bytes!");
        for bit in 0..framed.len() * 8 {
            let mut bad = framed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                open(header, &bad).is_err(),
                "bit flip at {bit} went undetected"
            );
        }
        // Header flips are covered by the checksum too.
        for bit in 0..64 {
            assert!(
                open(header ^ (1u64 << bit), &framed).is_err(),
                "header bit flip at {bit} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let header = 99;
        let framed = seal(header, 11, &[7u8; 32]);
        for cut in 0..framed.len() {
            assert!(open(header, &framed[..cut]).is_err(), "cut to {cut} passed");
        }
        // The structural cuts get structural errors: anything below the
        // prefix (including the old 12-byte prefix length) is TooShort,
        // anything at or above it with a short body is BadLength.
        assert_eq!(open(header, &framed[..12]), Err(FrameError::TooShort));
        assert_eq!(
            open(header, &framed[..FRAME_OVERHEAD]),
            Err(FrameError::BadLength)
        );
        assert_eq!(
            open(header, &framed[..FRAME_OVERHEAD + 5]),
            Err(FrameError::BadLength)
        );
    }

    #[test]
    fn declared_empty_body_with_trailing_bytes_is_rejected() {
        let header = 5;
        let mut framed = seal(header, 0, &[]);
        assert!(open(header, &framed).is_ok());
        // Trailing garbage after a declared-empty body: structural error,
        // even when the garbage would leave the checksum of a longer body
        // coincidentally valid-looking.
        framed.extend_from_slice(b"trailing");
        assert_eq!(open(header, &framed), Err(FrameError::BadLength));
        // Same for a non-empty declared length with extra bytes appended.
        let mut f2 = seal(header, 1, b"abc");
        f2.push(0);
        assert_eq!(open(header, &f2), Err(FrameError::BadLength));
    }

    #[test]
    fn seq_gate_admits_once_in_any_order() {
        let mut g = SeqGate::new();
        assert!(g.admit(0));
        assert!(!g.admit(0), "in-order duplicate");
        assert!(g.admit(2), "out-of-order arrival");
        assert!(!g.admit(2), "above-watermark duplicate");
        assert!(g.admit(1));
        assert!(!g.admit(1), "duplicate of compacted seq");
        assert!(!g.admit(0), "duplicate below watermark");
        assert_eq!(g.pending(), 0, "contiguous run must compact");
        assert!(g.admit(3));
    }

    #[test]
    fn seq_gate_watermark_stays_compact_under_windowed_reorder() {
        let mut g = SeqGate::new();
        // Deliver 0..1000 in pairs swapped (1,0,3,2,...): pending never
        // exceeds the reorder window.
        for base in (0..1000u64).step_by(2) {
            assert!(g.admit(base + 1));
            assert!(g.pending() <= 1);
            assert!(g.admit(base));
        }
        assert_eq!(g.pending(), 0);
        assert!(!g.admit(999));
    }

    #[test]
    fn seq_gate_caps_above_watermark_admissions() {
        let mut g = SeqGate::new().with_window(8);
        assert!(g.admit(0), "watermark itself is in-window");
        assert!(g.admit(8), "just inside the window after compaction");
        assert!(!g.admit(9), "exactly window-ahead is rejected");
        assert!(!g.admit(1_000_000), "far-future forgery is rejected");
        assert_eq!(g.pending(), 1, "rejections must not grow the set");
        // Filling the gap moves the watermark; the once-rejected seq is
        // now admissible.
        for s in 1..8u64 {
            assert!(g.admit(s));
        }
        assert!(g.admit(9));
    }

    #[test]
    fn seq_gate_watermark_and_mask_report_sack_state() {
        let mut g = SeqGate::new();
        assert_eq!(g.watermark(), 0);
        assert_eq!(g.mask_above(), 0);
        assert!(g.admit(0));
        assert!(g.admit(2));
        assert!(g.admit(4));
        // Watermark 1, pending {2, 4}: bit i ⇔ watermark+1+i admitted,
        // so 2 → bit 0 and 4 → bit 2.
        assert_eq!(g.watermark(), 1);
        assert_eq!(g.mask_above(), 0b101);
        assert!(g.admit(1));
        // Run 0..=2 compacts; w=3, pending {4} → bit 0.
        assert_eq!(g.watermark(), 3);
        assert_eq!(g.mask_above(), 0b1);
    }
}
