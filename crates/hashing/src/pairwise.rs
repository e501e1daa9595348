//! Pairwise independent hashing, `h(x) = (a·x + b) mod p`.
//!
//! This is the family Algorithm 8 of the paper asks for ("independently
//! sample function from a set of pair-wise independent hash functions").
//! It is a thin specialization of [`crate::PolynomialHash`] with `a ≠ 0`
//! enforced, which additionally makes the function injective on the
//! field — handy for the fingerprint tests in sparse recovery.

use crate::field::{mersenne_add, mersenne_mul, mersenne_reduce, MERSENNE_P};
use crate::Hasher64;
use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use rand::Rng;

/// A pairwise independent hash function with a non-zero slope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
}

impl PairwiseHash {
    /// Draws a fresh function with `a` uniform in `[1, p)` and `b`
    /// uniform in `[0, p)`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            a: rng.random_range(1..MERSENNE_P),
            b: rng.random_range(0..MERSENNE_P),
        }
    }

    /// Builds a function from explicit parameters (for tests).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ a < p` and `b < p`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn from_params(a: u64, b: u64) -> Self {
        assert!((1..MERSENNE_P).contains(&a), "slope must be in [1, p)");
        assert!(b < MERSENNE_P, "offset must be reduced");
        Self { a, b }
    }
}

impl Hasher64 for PairwiseHash {
    fn domain(&self) -> u64 {
        MERSENNE_P
    }

    fn hash(&self, key: u64) -> u64 {
        let x = mersenne_reduce(u128::from(key));
        mersenne_add(mersenne_mul(self.a, x), self.b)
    }
}

/// Payload: slope `a` then offset `b`, both already-canonical field
/// elements. Decode re-validates the `from_params` invariants with
/// typed errors instead of asserts.
impl Snapshot for PairwiseHash {
    const TAG: u8 = 1;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_u64(self.a);
        w.put_u64(self.b);
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let a = r.get_u64()?;
        let b = r.get_u64()?;
        if !(1..MERSENNE_P).contains(&a) {
            return Err(SnapshotError::Invalid("pairwise slope outside [1, p)"));
        }
        if b >= MERSENNE_P {
            return Err(SnapshotError::Invalid("pairwise offset outside [0, p)"));
        }
        Ok(Self { a, b })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn formula() {
        let h = PairwiseHash::from_params(3, 7);
        assert_eq!(h.hash(0), 7);
        assert_eq!(h.hash(1), 10);
        assert_eq!(h.hash(100), 307);
    }

    #[test]
    fn injective_on_field() {
        // a ≠ 0 makes x ↦ ax + b a bijection of 𝔽_p; spot-check a window.
        let h = PairwiseHash::new(&mut StdRng::seed_from_u64(5));
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(h.hash(x)), "collision at {x}");
        }
    }

    #[test]
    fn slope_never_zero() {
        for seed in 0..200u64 {
            let h = PairwiseHash::new(&mut StdRng::seed_from_u64(seed));
            assert_ne!(h.a, 0);
        }
    }

    #[test]
    fn bucket_balance() {
        let h = PairwiseHash::new(&mut StdRng::seed_from_u64(42));
        let m = 8u64;
        let n = 80_000u64;
        let mut counts = vec![0u64; m as usize];
        for x in 0..n {
            counts[h.hash_to_range(x, m) as usize] += 1;
        }
        let expected = (n / m) as f64;
        for &c in &counts {
            assert!((c as f64 - expected).abs() < 0.1 * expected);
        }
    }

    #[test]
    #[should_panic(expected = "slope must be in [1, p)")]
    fn zero_slope_rejected() {
        let _ = PairwiseHash::from_params(0, 1);
    }

    proptest::proptest! {
        #[test]
        fn prop_in_field(seed in proptest::num::u64::ANY, key in proptest::num::u64::ANY) {
            let h = PairwiseHash::new(&mut StdRng::seed_from_u64(seed));
            proptest::prop_assert!(h.hash(key) < MERSENNE_P);
        }

        #[test]
        fn prop_distinct_keys_distinct_hashes(seed in proptest::num::u64::ANY, a in 0u64..1_000_000, b in 0u64..1_000_000) {
            // Injectivity on reduced inputs.
            proptest::prop_assume!(a != b);
            let h = PairwiseHash::new(&mut StdRng::seed_from_u64(seed));
            proptest::prop_assert_ne!(h.hash(a), h.hash(b));
        }
    }
}
