//! Hash families with provable independence guarantees.
//!
//! The paper's randomized components need specific amounts of
//! independence, not "a good hash function":
//!
//! * Algorithm 8 hashes authors with a **pairwise independent** family
//!   ([`PairwiseHash`]) — its Markov/variance argument needs exactly
//!   2-wise independence;
//! * the ℓ₀-sampler's level assignment and the BJKST distinct-count
//!   estimator use **k-wise independent** polynomial hashing
//!   ([`PolynomialHash`]) over the Mersenne field 𝔽_(2⁶¹−1)
//!   ([`field`]);
//! * [`TabulationHash`] (3-independent, and far stronger in practice
//!   per Pătraşcu–Thorup) backs the KMV cross-check estimator where
//!   min-wise-style behaviour matters more than algebraic independence.
//!
//! All families are constructed from an explicit RNG so every run in the
//! workspace is reproducible from a seed.
//!
//! On top of the families sits the **hot-path kernel layer**: windowed
//! power ladders ([`PowerLadder`]) that turn per-update fixed-base
//! exponentiation into a handful of table lookups, and batched Horner
//! evaluation ([`PolynomialHash::hash_batch`]) that keeps the reduction
//! pipeline full across a slice of keys. Every kernel is bit-identical
//! to its scalar counterpart — they change cycle counts, never states.

#![deny(missing_docs)]
// Library lint set (docs/ANALYSIS.md): test builds are exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap
    )
)]

pub mod field;
pub mod kwise;
pub mod ladder;
pub mod pairwise;
pub mod tabulation;

pub use field::{
    from_i64, from_u64, is_canonical, mersenne_add, mersenne_mul, mersenne_pow, mersenne_reduce,
    MERSENNE_P,
};
pub use kwise::PolynomialHash;
pub use ladder::PowerLadder;
pub use pairwise::PairwiseHash;
pub use tabulation::TabulationHash;

/// A seeded hash function from `u64` keys to `[0, p)` with
/// family-specific independence guarantees.
pub trait Hasher64 {
    /// The size of the output domain (exclusive upper bound of
    /// [`Hasher64::hash`]).
    fn domain(&self) -> u64;

    /// Hashes a key.
    fn hash(&self, key: u64) -> u64;

    /// Hashes into `0..m` by modular reduction.
    ///
    /// The reduction adds a bias of at most `m / domain()`, negligible
    /// for `m ≪ 2⁶¹`; callers needing exactly-uniform buckets should
    /// keep `m` below 2³².
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`m > 0` is asserted first, so `m - 1` cannot wrap and `% m` cannot divide by zero"
    )]
    fn hash_to_range(&self, key: u64, m: u64) -> u64 {
        assert!(m > 0, "range must be non-empty");
        if m.is_power_of_two() {
            // Same value as `% m`, without the hardware divide — the
            // sketches' column counts (2s) are usually powers of two.
            self.hash(key) & (m - 1)
        } else {
            self.hash(key) % m
        }
    }

    /// Hashes to the unit interval `[0, 1)`.
    fn hash_to_unit(&self, key: u64) -> f64 {
        self.hash(key) as f64 / self.domain() as f64
    }
}
