//! HyperLogLog distinct counting.
//!
//! Included alongside [`crate::Bjkst`] and [`crate::Kmv`] as the
//! constant-factor-cheapest member of the F₀ family: `m` 6-bit
//! registers give `≈ 1.04/√m` relative error. BJKST remains the
//! default inside Algorithm 6 because its `(ε, δ)` contract is the one
//! the paper's analysis composes with; HyperLogLog is what a production
//! deployment would reach for when the failure probability can be
//! engineering-grade instead of proof-grade. Experiment E7 compares
//! all three.

use crate::distinct::DistinctCounter;
use hindex_common::SpaceUsage;
use hindex_hashing::{Hasher64, TabulationHash};
use rand::Rng;

/// A HyperLogLog counter with `2^precision` registers.
///
/// ```
/// use hindex_sketch::{HyperLogLog, distinct::DistinctCounter};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut h = HyperLogLog::new(12, &mut StdRng::seed_from_u64(0));
/// for key in 0..10_000u64 {
///     h.observe(key);
/// }
/// let est = h.estimate();
/// assert!((9_000..=11_000).contains(&est));
/// ```
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    hash: TabulationHash,
    precision: u32,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates a counter; `precision ∈ [4, 18]` gives `2^precision`
    /// registers and relative error `≈ 1.04 / 2^(precision/2)`.
    ///
    /// # Panics
    ///
    /// Panics outside the supported precision range.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(precision: u32, rng: &mut R) -> Self {
        assert!((4..=18).contains(&precision), "precision in 4..=18");
        Self {
            hash: TabulationHash::new(rng),
            precision,
            registers: vec![0u8; 1 << precision],
        }
    }

    /// Creates a counter targeting relative error `ε`.
    #[must_use]
    pub fn for_epsilon<R: Rng + ?Sized>(epsilon: f64, rng: &mut R) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        let m = (1.04 / epsilon).powi(2);
        let precision = (m.log2().ceil() as u32).clamp(4, 18);
        Self::new(precision, rng)
    }

    fn alpha(m: f64) -> f64 {
        // Flajolet et al.'s bias constants.
        match m as u64 {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        }
    }

    /// Merges a same-randomness clone by registerwise max.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(b);
        }
    }
}

impl DistinctCounter for HyperLogLog {
    fn observe(&mut self, key: u64) {
        let h = self.hash.hash(key);
        let idx = (h >> (64 - self.precision)) as usize;
        let rest = h << self.precision;
        // Rank: position of the leftmost 1 in the remaining bits.
        let rank = (rest.leading_zeros() + 1).min(64 - self.precision + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    fn estimate(&self) -> u64 {
        let m = self.registers.len() as f64;
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
        let raw = Self::alpha(m) * m * m / sum;
        // Small-range correction (linear counting).
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        let corrected = if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        corrected.round() as u64
    }
}

impl SpaceUsage for HyperLogLog {
    fn space_words(&self) -> usize {
        // 6-bit registers, 8 to a word, plus the tabulation tables.
        self.registers.len() / 8 + 8 * 256
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_is_zero() {
        let h = HyperLogLog::new(10, &mut StdRng::seed_from_u64(0));
        assert_eq!(h.estimate(), 0);
    }

    #[test]
    fn duplicates_free() {
        let mut h = HyperLogLog::new(10, &mut StdRng::seed_from_u64(1));
        for _ in 0..10_000 {
            h.observe(42);
        }
        assert_eq!(h.estimate(), 1);
    }

    #[test]
    fn small_counts_near_exact() {
        let mut h = HyperLogLog::new(12, &mut StdRng::seed_from_u64(2));
        for i in 0..100u64 {
            h.observe(i);
        }
        let est = h.estimate();
        assert!((95..=105).contains(&est), "est {est}");
    }

    #[test]
    fn accuracy_across_scales() {
        for (seed, d) in [(3u64, 10_000u64), (4, 1_000_000)] {
            let mut h = HyperLogLog::new(12, &mut StdRng::seed_from_u64(seed));
            for i in 0..d {
                h.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            let est = h.estimate() as f64;
            // 1.04/√4096 ≈ 1.6%; allow 4 sigma.
            assert!(
                (est - d as f64).abs() <= 0.07 * d as f64,
                "d={d} est={est}"
            );
        }
    }

    #[test]
    fn for_epsilon_sizes_registers() {
        let mut rng = StdRng::seed_from_u64(5);
        let coarse = HyperLogLog::for_epsilon(0.1, &mut rng);
        let fine = HyperLogLog::for_epsilon(0.01, &mut rng);
        assert!(fine.registers.len() > coarse.registers.len());
    }

    #[test]
    fn merge_is_union() {
        let proto = HyperLogLog::new(12, &mut StdRng::seed_from_u64(6));
        let mut a = proto.clone();
        let mut b = proto.clone();
        let mut whole = proto.clone();
        for i in 0..20_000u64 {
            let k = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            whole.observe(k);
            if i % 2 == 0 {
                a.observe(k);
            } else {
                b.observe(k);
            }
        }
        a.merge(&b);
        assert_eq!(a.estimate(), whole.estimate());
    }

    #[test]
    #[should_panic(expected = "precision in 4..=18")]
    fn precision_bounds() {
        let _ = HyperLogLog::new(3, &mut StdRng::seed_from_u64(0));
    }
}
