//! k-wise independent polynomial hashing.
//!
//! A degree-`(k−1)` polynomial with uniformly random coefficients over a
//! prime field is a k-wise independent hash family (Wegman–Carter).
//! [`PolynomialHash`] evaluates such a polynomial over
//! 𝔽_(2⁶¹−1) via Horner's rule: `O(k)` multiplies per key.

use crate::field::{mersenne_add, mersenne_mul, mersenne_reduce, MERSENNE_P};
use crate::Hasher64;
use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use rand::Rng;

/// A k-wise independent hash function `h: u64 → [0, p)`,
/// `h(x) = Σ cᵢ xⁱ mod p` with random `cᵢ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolynomialHash {
    /// `coeffs[i]` multiplies `x^i`; `coeffs.len()` is the independence k.
    coeffs: Vec<u64>,
}

impl PolynomialHash {
    /// Draws a fresh function from the k-wise independent family.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(k: usize, rng: &mut R) -> Self {
        assert!(k >= 1, "independence must be at least 1");
        let coeffs = (0..k).map(|_| rng.random_range(0..MERSENNE_P)).collect();
        Self { coeffs }
    }

    /// The independence level k of this function.
    #[must_use]
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Builds a function from explicit coefficients (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty or any coefficient is `≥ p`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn from_coefficients(coeffs: Vec<u64>) -> Self {
        assert!(!coeffs.is_empty(), "need at least one coefficient");
        assert!(coeffs.iter().all(|&c| c < MERSENNE_P), "coefficients must be reduced");
        Self { coeffs }
    }

    /// Evaluates the polynomial over a whole slice of keys, appending
    /// one hash per key to `out` (cleared first).
    ///
    /// Bit-identical to calling [`Hasher64::hash`] per key. The win is
    /// throughput: keys are processed four at a time with independent
    /// Horner accumulators, so the `k` sequential 64×64→128 multiplies
    /// per key overlap across lanes instead of serializing on one
    /// reduction chain. This is the hash kernel behind the estimators'
    /// `ingest_batch` fast paths (and hence the sharded engine's
    /// per-shard batch loop).
    pub fn hash_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(keys.len());
        let mut chunks = keys.chunks_exact(4);
        for chunk in &mut chunks {
            let x0 = mersenne_reduce(u128::from(chunk[0]));
            let x1 = mersenne_reduce(u128::from(chunk[1]));
            let x2 = mersenne_reduce(u128::from(chunk[2]));
            let x3 = mersenne_reduce(u128::from(chunk[3]));
            let (mut a0, mut a1, mut a2, mut a3) = (0u64, 0u64, 0u64, 0u64);
            for &c in self.coeffs.iter().rev() {
                a0 = mersenne_add(mersenne_mul(a0, x0), c);
                a1 = mersenne_add(mersenne_mul(a1, x1), c);
                a2 = mersenne_add(mersenne_mul(a2, x2), c);
                a3 = mersenne_add(mersenne_mul(a3, x3), c);
            }
            out.extend_from_slice(&[a0, a1, a2, a3]);
        }
        for &k in chunks.remainder() {
            out.push(self.hash(k));
        }
    }
}

/// Payload: coefficient count, then the reduced coefficients `c₀ … c_{k−1}`.
/// Decode re-validates the `from_coefficients` invariants (non-empty,
/// every coefficient canonical) with typed errors.
impl Snapshot for PolynomialHash {
    const TAG: u8 = 2;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_usize(self.coeffs.len());
        for &c in &self.coeffs {
            w.put_u64(c);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let k = r.get_count(8)?;
        if k == 0 {
            return Err(SnapshotError::Invalid("polynomial hash needs at least one coefficient"));
        }
        let mut coeffs = Vec::with_capacity(k);
        for _ in 0..k {
            let c = r.get_u64()?;
            if c >= MERSENNE_P {
                return Err(SnapshotError::Invalid("polynomial coefficient outside [0, p)"));
            }
            coeffs.push(c);
        }
        Ok(Self { coeffs })
    }
}

impl Hasher64 for PolynomialHash {
    fn domain(&self) -> u64 {
        MERSENNE_P
    }

    fn hash(&self, key: u64) -> u64 {
        let x = mersenne_reduce(u128::from(key));
        // Horner: (((c_{k-1}·x + c_{k-2})·x + …)·x + c_0)
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = mersenne_add(mersenne_mul(acc, x), c);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_polynomial_is_constant() {
        let h = PolynomialHash::from_coefficients(vec![42]);
        for x in [0u64, 1, 99, u64::MAX] {
            assert_eq!(h.hash(x), 42);
        }
    }

    #[test]
    fn linear_polynomial_matches_formula() {
        // h(x) = 3 + 5x mod p
        let h = PolynomialHash::from_coefficients(vec![3, 5]);
        assert_eq!(h.hash(0), 3);
        assert_eq!(h.hash(1), 8);
        assert_eq!(h.hash(10), 53);
        let big = MERSENNE_P - 1;
        assert_eq!(h.hash(big), (3 + 5 * (u128::from(big)) % u128::from(MERSENNE_P)) as u64 % MERSENNE_P);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let h1 = PolynomialHash::new(4, &mut rng1);
        let h2 = PolynomialHash::new(4, &mut rng2);
        for x in 0..100u64 {
            assert_eq!(h1.hash(x), h2.hash(x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let h1 = PolynomialHash::new(2, &mut StdRng::seed_from_u64(1));
        let h2 = PolynomialHash::new(2, &mut StdRng::seed_from_u64(2));
        let same = (0..100u64).filter(|&x| h1.hash(x) == h2.hash(x)).count();
        assert!(same < 5, "two random functions should rarely collide pointwise");
    }

    #[test]
    fn range_hashing_respects_bounds() {
        let h = PolynomialHash::new(3, &mut StdRng::seed_from_u64(3));
        for x in 0..1000u64 {
            assert!(h.hash(x) < MERSENNE_P);
            assert!(h.hash_to_range(x, 17) < 17);
            let u = h.hash_to_unit(x);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn buckets_are_roughly_balanced() {
        // Statistical smoke test: 2-wise independence gives near-uniform
        // marginals; check no bucket is wildly off.
        let h = PolynomialHash::new(2, &mut StdRng::seed_from_u64(11));
        let m = 10u64;
        let n = 100_000u64;
        let mut counts = vec![0u64; m as usize];
        for x in 0..n {
            counts[h.hash_to_range(x, m) as usize] += 1;
        }
        let expected = n / m;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                c > expected * 9 / 10 && c < expected * 11 / 10,
                "bucket {b} has {c}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn pairwise_collision_rate_near_one_over_m() {
        // Collision probability of a pairwise family is ≤ 1/m; estimate
        // over random pairs.
        let h = PolynomialHash::new(2, &mut StdRng::seed_from_u64(13));
        let m = 64u64;
        let mut collisions = 0u64;
        let pairs = 20_000u64;
        for i in 0..pairs {
            let a = i * 2 + 1;
            let b = i * 2 + 2;
            if h.hash_to_range(a, m) == h.hash_to_range(b, m) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / pairs as f64;
        assert!(rate < 2.0 / m as f64, "collision rate {rate} too high for m={m}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_independence_panics() {
        let _ = PolynomialHash::new(0, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn hash_batch_handles_empty_and_remainders() {
        let h = PolynomialHash::new(3, &mut StdRng::seed_from_u64(17));
        let mut out = Vec::new();
        for len in 0..9 {
            let keys: Vec<u64> = (0..len as u64).map(|k| k * 31 + 7).collect();
            h.hash_batch(&keys, &mut out);
            let expected: Vec<u64> = keys.iter().map(|&k| h.hash(k)).collect();
            assert_eq!(out, expected, "len {len}");
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_output_in_field(seed in proptest::num::u64::ANY, key in proptest::num::u64::ANY) {
            let h = PolynomialHash::new(5, &mut StdRng::seed_from_u64(seed));
            proptest::prop_assert!(h.hash(key) < MERSENNE_P);
        }

        #[test]
        fn prop_hash_batch_matches_per_key(
            seed in proptest::num::u64::ANY,
            k in 1usize..16,
            keys in proptest::collection::vec(proptest::num::u64::ANY, 0..64),
        ) {
            let h = PolynomialHash::new(k, &mut StdRng::seed_from_u64(seed));
            let mut out = Vec::new();
            h.hash_batch(&keys, &mut out);
            let expected: Vec<u64> = keys.iter().map(|&key| h.hash(key)).collect();
            proptest::prop_assert_eq!(out, expected);
        }
    }
}
