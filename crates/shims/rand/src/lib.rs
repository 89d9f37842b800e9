//! Offline shim for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! This build environment has no network access to a crate registry, so the
//! workspace vendors a minimal, deterministic, API-compatible subset of
//! `rand` 0.9: [`RngCore`], [`Rng`] (`random_range` / `random_bool`),
//! [`SeedableRng`] and [`rngs::StdRng`].
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64 — *not* the ChaCha12 core of the real crate, so seeded
//! streams differ from upstream `rand`. Everything in this workspace that
//! consumes seeded randomness asserts properties (determinism, invariants,
//! statistical tolerances), never exact upstream streams.

#![forbid(unsafe_code)]

/// Advances `state` by the SplitMix64 golden-ratio increment and returns
/// the finalized output word.
///
/// This is the workspace's one canonical copy of the SplitMix64 step: the
/// deterministic agent→shard routing hash, [`SeedableRng::seed_from_u64`]
/// seed expansion and the `SimNet` latency/loss sampler all call it, so
/// their streams are bit-identical across crates and can never drift
/// apart. The regression tests below pin exact output words.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stateless 64-bit avalanche finalizer (MurmurHash3 / SplitMix64
/// `mix`): a bijective scramble with no stream state.
///
/// The regression tests below pin exact output words, so any hash built
/// on it can never silently move.
pub fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// The core of a random number generator: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types that can be drawn uniformly from a range.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Draws uniformly from `[low, high]` (both inclusive).
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "sample_inclusive: low > high");
                // Work in u128 offsets from `low`; the modulo bias over a
                // 128-bit draw is < 2^-64, far below anything a test can see.
                let span = (high as i128).wrapping_sub(low as i128) as u128 + 1;
                if span == 0 {
                    // Full-width range of a 128-bit type.
                    let v = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                    return v as $t;
                }
                let v = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                let off = v % span;
                ((low as i128).wrapping_add(off as i128)) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for u128 {
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: u128, high: u128) -> u128 {
        assert!(low <= high, "sample_inclusive: low > high");
        let span = high.wrapping_sub(low).wrapping_add(1);
        let v = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        if span == 0 {
            v
        } else {
            low.wrapping_add(v % span)
        }
    }
}

impl SampleUniform for i128 {
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: i128, high: i128) -> i128 {
        let off = u128::sample_inclusive(rng, 0, high.wrapping_sub(low) as u128);
        low.wrapping_add(off as i128)
    }
}

impl SampleUniform for f64 {
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: f64, high: f64) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + (high - low) * unit
    }
}

/// Ranges that can parameterise [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + One> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "random_range: empty range");
        T::sample_inclusive(rng, self.start, T::dec(self.end))
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Helper for half-open integer ranges: `end - 1`.
pub trait One: Sized {
    /// Returns the predecessor of `v` (used to close a half-open range).
    fn dec(v: Self) -> Self;
}

macro_rules! impl_one {
    ($($t:ty),*) => {$(
        impl One for $t {
            fn dec(v: $t) -> $t { v - 1 }
        }
    )*};
}

impl_one!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// User-facing random value generation, blanket-implemented for every
/// [`RngCore`] (including `dyn RngCore`).
pub trait Rng: RngCore {
    /// Draws a value uniformly from `range` (half-open or inclusive).
    fn random_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "random_bool: p={p} outside [0,1]");
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it via
    /// [`splitmix64`].
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let z = crate::splitmix64(&mut state);
            for (b, byte) in chunk.iter_mut().zip(z.to_le_bytes()) {
                *b = byte;
            }
        }
        Self::from_seed(seed)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Statistically strong and fast; **not** cryptographic and **not**
    /// stream-compatible with upstream `rand::rngs::StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> StdRng {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // An all-zero state would be a fixed point; nudge it.
            if s == [0, 0, 0, 0] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{mix64, splitmix64, Rng, RngCore, SeedableRng};

    #[test]
    fn splitmix64_stream_is_pinned() {
        // Exact output words of the canonical SplitMix64 step. Routing
        // (agent→shard) and seed expansion both derive from this stream,
        // so these constants moving means determinism moved.
        for (start, expected) in [
            (
                0u64,
                [
                    0xE220_A839_7B1D_CDAF,
                    0x6E78_9E6A_A1B9_65F4,
                    0x06C4_5D18_8009_454F,
                ],
            ),
            (
                1,
                [
                    0x910A_2DEC_8902_5CC1,
                    0xBEEB_8DA1_658E_EC67,
                    0xF893_A2EE_FB32_555E,
                ],
            ),
            (
                42,
                [
                    0xBDD7_3226_2FEB_6E95,
                    0x28EF_E333_B266_F103,
                    0x4752_6757_130F_9F52,
                ],
            ),
        ] {
            let mut state = start;
            for word in expected {
                assert_eq!(splitmix64(&mut state), word, "stream from {start}");
            }
        }
    }

    #[test]
    fn mix64_outputs_are_pinned() {
        // Exact finalizer outputs, pinned bit-for-bit.
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0xFF51_AFD7_92FD_5B26);
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0x9341_CA26_3702_A9E6);
    }

    #[test]
    fn seed_from_u64_expands_through_the_shared_splitmix() {
        // seed_from_u64 must be exactly four splitmix64 draws.
        let rng = StdRng::seed_from_u64(42);
        let mut state = 42u64;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        let mut expected = StdRng::from_seed(seed);
        let mut actual = rng;
        for _ in 0..16 {
            assert_eq!(actual.next_u64(), expected.next_u64());
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: u64 = rng.random_range(0..100);
            assert!(v < 100);
            let w: i64 = rng.random_range(-50..=50);
            assert!((-50..=50).contains(&w));
            let u: usize = rng.random_range(1..2);
            assert_eq!(u, 1);
        }
    }

    #[test]
    fn random_bool_respects_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut rng = StdRng::seed_from_u64(3);
        let dynrng: &mut dyn RngCore = &mut rng;
        let v = dynrng.random_range(0usize..10);
        assert!(v < 10);
        let _ = dynrng.random_bool(0.5);
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
