//! Offline stand-in for the [`rand`](https://docs.rs/rand/0.9) crate.
//!
//! The build environment for this workspace has no crates.io access, so
//! the external `rand` dependency is replaced (via a Cargo dependency
//! rename) by this crate, which implements exactly the subset of the
//! rand 0.9 API the workspace uses:
//!
//! * [`Rng`] with [`Rng::random`], [`Rng::random_range`] and
//!   [`Rng::random_bool`];
//! * [`SeedableRng`] with [`SeedableRng::seed_from_u64`];
//! * [`rngs::StdRng`] — here a xoshiro256++ generator seeded through
//!   SplitMix64 (not ChaCha12 as in the real crate, so *sequences
//!   differ* from upstream `rand`, but determinism per seed and
//!   statistical quality are preserved);
//! * [`seq::SliceRandom::shuffle`] (Fisher–Yates).
//!
//! Everything is deterministic given the seed; there is no OS entropy
//! source, which also keeps the workspace reproducible by construction.

#![deny(missing_docs)]

/// Low-level generator interface: a source of uniform `u64` words.
pub trait RngCore {
    /// The next 64 uniform random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniform random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from a generator (the shim's
/// version of rand's `StandardUniform` distribution).
pub trait UniformSample: Sized {
    /// Draws one uniform value.
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl UniformSample for u64 {
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl UniformSample for u32 {
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl UniformSample for u8 {
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl UniformSample for u16 {
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl UniformSample for usize {
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl UniformSample for bool {
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl UniformSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision (the standard
    /// `bits >> 11 / 2⁵³` construction).
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl UniformSample for f32 {
    fn sample_uniform<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that [`Rng::random_range`] accepts, parameterized by the
/// output type so untyped integer literals infer from context (as in
/// the real crate).
pub trait SampleRange<T> {
    /// Draws uniformly from the range.
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased uniform integer in `[0, bound)` via Lemire-style rejection.
fn bounded_u64<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection zone: the highest multiple of `bound` representable.
    let zone = u64::MAX - u64::MAX % bound;
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleRange<$t> for ::std::ops::Range<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                self.start.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for ::std::ops::RangeInclusive<$t> {
            fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(bounded_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => u64, i16 => u64, i32 => u64, i64 => u64, isize => u64,
);

impl SampleRange<f64> for ::std::ops::Range<f64> {
    fn sample_range<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let u = f64::sample_uniform(rng);
        self.start + u * (self.end - self.start)
    }
}

/// High-level convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value of type `T` (integers over the whole domain,
    /// floats in `[0, 1)`).
    fn random<T: UniformSample>(&mut self) -> T {
        T::sample_uniform(self)
    }

    /// A uniform value from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_range(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample_uniform(self) < p
    }

    /// Fills `dest` with uniform values (used for tabulation tables).
    fn fill<T: UniformSample>(&mut self, dest: &mut [T]) {
        for cell in dest {
            *cell = T::sample_uniform(self);
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministically seedable generators.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (SplitMix64 expansion, the
    /// same convention upstream rand uses for `seed_from_u64`).
    fn seed_from_u64(seed: u64) -> Self;
}

/// One SplitMix64 step: used for seed expansion.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman &
    /// Vigna), seeded via SplitMix64. Small state, passes BigCrush,
    /// and fast enough to disappear inside any sketch update.
    ///
    /// Not the ChaCha12 generator of upstream `rand` — sequences
    /// differ from the real crate, determinism per seed does not.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut sm);
            }
            // An all-zero state would be a fixed point; SplitMix64
            // cannot produce four zero outputs from any seed, but keep
            // the guard explicit.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            Self { s }
        }
    }

    impl StdRng {
        /// The generator's full internal state, for checkpointing: a
        /// generator rebuilt via [`StdRng::from_state`] continues the
        /// exact sequence this one would have produced.
        #[must_use]
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a previously captured
        /// [`StdRng::state`]. An all-zero state is a fixed point of
        /// xoshiro256++ and is nudged to a valid seed instead.
        #[must_use]
        pub fn from_state(mut s: [u64; 4]) -> Self {
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            Self { s }
        }
    }

    impl RngCore for StdRng {
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
    }

    /// Alias: the small generator is the same xoshiro256++ here.
    pub type SmallRng = StdRng;
}

/// Sequence helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, SampleRange};

    /// In-place uniform shuffling.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j: usize = (0..=i).sample_range(rng);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    use super::RngCore;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10_000 {
            let v = rng.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.random_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bounded_sampling_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.random_range(0usize..10)] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 10.0;
            assert!((f64::from(c) - expected).abs() < expected * 0.05, "{counts:?}");
        }
    }

    #[test]
    fn full_u64_range_inclusive() {
        let mut rng = StdRng::seed_from_u64(3);
        // Must not overflow or loop forever.
        let _ = rng.random_range(0u64..=u64::MAX);
        let _ = rng.random_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u64> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the identity permutation");
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "{hits}");
    }
}
