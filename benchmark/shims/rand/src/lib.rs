//! Offline stand-in for `rand` 0.8: seeded generators only.
//!
//! `benchmark/Cargo.toml` patches `rand` onto this crate because the build
//! container has no crates.io registry. It covers the seeded subset this
//! repository uses and a margin around it: [`SeedableRng`], [`Rng::gen`],
//! [`Rng::gen_range`], [`Rng::gen_bool`], [`rngs::SmallRng`],
//! [`rngs::StdRng`] and [`seq::SliceRandom`]. There is no entropy source
//! (`thread_rng`, `from_entropy`): every generator must be seeded.
//!
//! `SmallRng` is xoshiro256++ seeded through SplitMix64, as in rand 0.8 on
//! 64-bit targets, and floats use the same 53/24-bit mantissa conversion.
//! Integer ranges use an unbiased widening multiply whose rejection rule is
//! *not* bit-identical to rand's, and `StdRng` is not ChaCha. Graphs and
//! jitter drawn through this crate therefore differ from a build against
//! the real one: numbers compare commits of this repository, not builds.

use std::ops::{Range, RangeInclusive};

/// The raw generator interface.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// The full-width seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Build from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a 64-bit seed, expanded through SplitMix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types [`Rng::gen`] can produce (rand's `Standard` distribution).
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one value.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, span)` by widening multiply with rejection.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let zone = span.wrapping_neg() % span; // 2^64 mod span
    loop {
        let wide = (rng.next_u64() as u128) * (span as u128);
        if (wide as u64) >= zone {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_impls {
    ($($t:ty => $wide:ty),+ $(,)?) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(below(rng, span) as $wide) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = ((hi as $wide).wrapping_sub(lo as $wide) as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t; // the whole 64-bit domain
                }
                (lo as $wide).wrapping_add(below(rng, span) as $wide) as $t
            }
        }
    )+};
}

int_impls!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
           i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

macro_rules! float_ranges {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                loop {
                    // Rounding can land exactly on `end`; redraw then.
                    let v = self.start + (self.end - self.start) * <$t as Standard>::draw(rng);
                    if v < self.end {
                        return v;
                    }
                }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                lo + (hi - lo) * <$t as Standard>::draw(rng)
            }
        }
    )+};
}

float_ranges!(f32, f64);

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly random `T` (floats in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniformly random value in `range` (`a..b` or `a..=b`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.gen::<f64>() < p
    }

    /// `true` with probability `numerator / denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0 && numerator <= denominator);
        self.gen_range(0..denominator) < numerator
    }

    /// Fill a byte slice with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// xoshiro256++ state shared by both generators.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Xoshiro256 {
        s: [u64; 4],
    }

    impl Xoshiro256 {
        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // The all-zero state is a fixed point; remap it as rand does.
                return <SmallRng as SeedableRng>::seed_from_u64(0).0;
            }
            Xoshiro256 { s }
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Small fast non-cryptographic generator (xoshiro256++).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng(Xoshiro256);

    /// The "default strong" generator of rand. Here it is xoshiro256++ on a
    /// stream decorrelated from [`SmallRng`]'s — deterministic per seed,
    /// not cryptographic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(Xoshiro256);

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.0.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];
        fn from_seed(seed: [u8; 32]) -> Self {
            SmallRng(Xoshiro256::from_seed(seed))
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.0.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];
        fn from_seed(mut seed: [u8; 32]) -> Self {
            for b in &mut seed {
                *b ^= 0xA5;
            }
            StdRng(Xoshiro256::from_seed(seed))
        }
    }
}

pub mod seq {
    //! Random operations on slices.

    use super::Rng;

    /// Shuffling and choosing on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly chosen element, `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod prelude {
    //! The usual imports.
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn small_rng_matches_xoshiro256plusplus_reference() {
        // First outputs of xoshiro256++ from state [1, 2, 3, 4]
        // (reference vector of the algorithm's authors, also used by rand).
        let mut seed = [0u8; 32];
        for (i, w) in [1u64, 2, 3, 4].iter().enumerate() {
            seed[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        let mut rng = SmallRng::from_seed(seed);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [41943041, 58720359, 3588806011781223, 3591011842654386]
        );
    }

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let mut d = StdRng::seed_from_u64(7);
        let (x, y, z, w) = (a.next_u64(), b.next_u64(), c.next_u64(), d.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert_ne!(x, w);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover_them() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 6];
        for _ in 0..2000 {
            let v = rng.gen_range(0..6usize);
            seen[v] = true;
            let w = rng.gen_range(1..=3u32);
            assert!((1..=3).contains(&w));
            let s = rng.gen_range(-5..5i32);
            assert!((-5..5).contains(&s));
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let g = rng.gen_range(2.0..3.0f32);
            assert!((2.0..3.0).contains(&g));
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rng.gen_range(0..=u64::MAX) as u128 >> 64, 0);
    }

    #[test]
    fn gen_bool_extremes_and_shuffle_permutes() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
        assert!(v.choose(&mut rng).is_some());
    }
}
