//! Count-Min sketch.
//!
//! Not part of the paper's algorithms — included as the *baseline* the
//! experiments contrast with: classical heavy hitters track large
//! **total citation counts**, and experiment E12(b) shows that ranking
//! authors by CountMin-estimated citation volume does not recover the
//! authors with heavy **H-indices**, which is why the paper's Algorithm
//! 8 is needed.

use hindex_common::SpaceUsage;
use hindex_hashing::{Hasher64, PairwiseHash};
use rand::Rng;

/// Count-Min frequency sketch over `u64` keys with non-negative
/// updates.
///
/// ```
/// use hindex_sketch::CountMin;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut cm = CountMin::for_guarantee(0.01, 0.01, &mut StdRng::seed_from_u64(0));
/// cm.add(42, 100);
/// cm.add(42, 5);
/// assert!(cm.query(42) >= 105); // never underestimates
/// ```
#[derive(Debug, Clone)]
pub struct CountMin {
    width: usize,
    hashes: Vec<PairwiseHash>,
    /// `counts[row * width + col]`.
    counts: Vec<u64>,
    /// Total mass, for heavy-hitter thresholds.
    total: u64,
}

impl CountMin {
    /// Creates a sketch with explicit geometry: estimate error is
    /// `≤ e·total/width` with probability `≥ 1 − e^{-depth}` per query.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `depth == 0`.
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`width × depth` counters are allocated, so the product fits"
    )]
    pub fn new<R: Rng + ?Sized>(width: usize, depth: usize, rng: &mut R) -> Self {
        assert!(width > 0 && depth > 0, "geometry must be positive");
        Self {
            width,
            hashes: (0..depth).map(|_| PairwiseHash::new(rng)).collect(),
            counts: vec![0; width * depth],
            total: 0,
        }
    }

    /// Creates a sketch with the standard `(ε, δ)` geometry:
    /// `width = ⌈e/ε⌉`, `depth = ⌈ln(1/δ)⌉`.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`ε, δ ∈ (0, 1)` are asserted, so the ratios are small positive floats; float-to-int `as` saturates"
    )]
    pub fn for_guarantee<R: Rng + ?Sized>(epsilon: f64, delta: f64, rng: &mut R) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        Self::new(width.max(1), depth.max(1), rng)
    }

    /// Adds `count` occurrences of `key`. Counts saturate at
    /// `u64::MAX`, so an estimate stays an overestimate, and merge stays
    /// exact for any split of the stream.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        reason = "`hash_to_range(_, width)` is below `width` and `row < depth`, so the cell lies in the `depth × width` grid"
    )]
    pub fn add(&mut self, key: u64, count: u64) {
        for (row, h) in self.hashes.iter().enumerate() {
            let col = h.hash_to_range(key, self.width as u64) as usize;
            let cell = &mut self.counts[row * self.width + col];
            *cell = cell.saturating_add(count);
        }
        self.total = self.total.saturating_add(count);
    }

    /// Point query: an overestimate of the true count of `key`
    /// (`true ≤ estimate ≤ true + ε·total` whp).
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        reason = "`hash_to_range(_, width)` is below `width` and `row < depth`, so the cell lies in the `depth × width` grid"
    )]
    pub fn query(&self, key: u64) -> u64 {
        self.hashes
            .iter()
            .enumerate()
            .map(|(row, h)| {
                let col = h.hash_to_range(key, self.width as u64) as usize;
                self.counts[row * self.width + col]
            })
            .min()
            .unwrap_or(0)
    }

    /// Total mass added so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Merges another sketch with identical geometry and hash
    /// functions (a pre-update clone): counts add cellwise, and the
    /// merged sketch answers queries over the union stream.
    ///
    /// # Panics
    ///
    /// Panics if geometry or hashes differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(self.hashes, other.hashes, "sketches must share randomness");
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(b);
        }
        self.total = self.total.saturating_add(other.total);
    }
}

impl SpaceUsage for CountMin {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated counters and hashes fit in usize"
    )]
    fn space_words(&self) -> usize {
        self.counts.len() + 2 * self.hashes.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn huge_counts_saturate_and_merge_like_serial() {
        let proto = CountMin::new(8, 3, &mut StdRng::seed_from_u64(3));
        let stream = [(1u64, u64::MAX), (1, 5), (2, 4)];
        let mut serial = proto.clone();
        for &(k, c) in &stream {
            serial.add(k, c);
        }
        let (mut left, mut right) = (proto.clone(), proto);
        left.add(1, u64::MAX);
        right.add(1, 5);
        right.add(2, 4);
        left.merge(&right);
        assert_eq!(serial.query(1), u64::MAX);
        assert_eq!(serial.total(), u64::MAX);
        assert_eq!(
            (left.query(1), left.query(2)),
            (serial.query(1), serial.query(2))
        );
        assert_eq!(left.total(), serial.total());
    }

    #[test]
    fn never_underestimates() {
        let mut cm = CountMin::new(50, 4, &mut StdRng::seed_from_u64(0));
        let truth: Vec<(u64, u64)> = (0..200).map(|i| (i, (i % 7) + 1)).collect();
        for &(k, c) in &truth {
            cm.add(k, c);
        }
        for &(k, c) in &truth {
            assert!(cm.query(k) >= c, "key {k}");
        }
    }

    #[test]
    fn overestimate_bounded_by_guarantee() {
        let mut cm = CountMin::for_guarantee(0.01, 0.01, &mut StdRng::seed_from_u64(1));
        for i in 0..10_000u64 {
            cm.add(i, 1);
        }
        let slack = (0.02 * cm.total() as f64) as u64;
        let mut violations = 0;
        for i in 0..10_000u64 {
            if cm.query(i) > 1 + slack {
                violations += 1;
            }
        }
        assert!(violations < 100, "{violations} queries exceeded the bound");
    }

    #[test]
    fn unseen_keys_small() {
        let mut cm = CountMin::for_guarantee(0.001, 0.01, &mut StdRng::seed_from_u64(2));
        for i in 0..1000u64 {
            cm.add(i, 1);
        }
        // An unseen key's estimate is pure collision noise ≤ ε·total whp.
        let noise = cm.query(999_999_999);
        assert!(noise <= 2, "noise {noise}");
    }

    #[test]
    fn heavy_key_dominates() {
        let mut cm = CountMin::for_guarantee(0.01, 0.01, &mut StdRng::seed_from_u64(3));
        cm.add(7, 100_000);
        for i in 100..1100u64 {
            cm.add(i, 10);
        }
        assert!(cm.query(7) >= 100_000);
        assert!(cm.query(7) <= 100_000 + cm.total() / 50);
    }

    #[test]
    fn space_matches_geometry() {
        use hindex_common::SpaceUsage;
        let cm = CountMin::new(100, 5, &mut StdRng::seed_from_u64(4));
        assert_eq!(cm.space_words(), 500 + 10 + 1);
    }

    proptest::proptest! {
        #[test]
        fn prop_monotone_total(adds in proptest::collection::vec((0u64..1000, 1u64..100), 0..100)) {
            let mut cm = CountMin::new(20, 3, &mut StdRng::seed_from_u64(5));
            let mut expected_total = 0u64;
            for &(k, c) in &adds {
                cm.add(k, c);
                expected_total += c;
            }
            proptest::prop_assert_eq!(cm.total(), expected_total);
        }

        #[test]
        fn prop_query_at_least_truth(adds in proptest::collection::vec((0u64..50, 1u64..10), 1..100)) {
            let mut cm = CountMin::new(64, 4, &mut StdRng::seed_from_u64(6));
            let mut truth = std::collections::HashMap::new();
            for &(k, c) in &adds {
                cm.add(k, c);
                *truth.entry(k).or_insert(0u64) += c;
            }
            for (&k, &c) in &truth {
                proptest::prop_assert!(cm.query(k) >= c);
            }
        }
    }
}
