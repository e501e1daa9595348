//! Algorithm 1 / Theorem 5: the exponential histogram.
//!
//! One counter per grid level `i`, counting the stream elements
//! `≥ (1+ε)ⁱ`; the estimate is the largest threshold whose counter
//! reaches it. Deterministic, works under adversarial order, and
//! guarantees `(1−ε)·h* ≤ ĥ ≤ h*`.
//!
//! Two output-identical implementation refinements over the paper's
//! pseudocode:
//!
//! * instead of incrementing every cleared counter (`O(levels)` per
//!   element), each element increments only the bucket of its *highest*
//!   cleared level and the query takes suffix sums (`O(1)` amortized
//!   per element, `O(levels)` per query);
//! * counters are materialized lazily: a counter for a level nobody has
//!   cleared yet would hold zero, so the vector grows only when a new
//!   maximum level appears. This removes the pseudocode's need to know
//!   `n` in advance while counting exactly the same quantities.

use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use hindex_common::{AggregateEstimator, Epsilon, Estimate, ExpGrid, Mergeable, SpaceUsage};

/// Deterministic `(1−ε)`-approximate streaming H-index over aggregate
/// streams (Algorithm 1).
///
/// ```
/// use hindex_common::{AggregateEstimator, Epsilon, Estimate};
/// use hindex_core::ExponentialHistogram;
///
/// let mut est = ExponentialHistogram::new(Epsilon::new(0.1).unwrap());
/// for citations in [10u64, 8, 5, 4, 3] {
///     est.ingest(citations);
/// }
/// let h = est.estimate(); // true h-index is 4
/// assert!(h <= 4 && h >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct ExponentialHistogram {
    grid: ExpGrid,
    /// `buckets[i]` = number of elements whose highest cleared level is
    /// exactly `i`; the paper's counter `c_i` is `Σ_{j ≥ i} buckets[j]`.
    buckets: Vec<u64>,
}

impl ExponentialHistogram {
    /// Creates the estimator for accuracy `ε`.
    #[must_use]
    pub fn new(epsilon: Epsilon) -> Self {
        Self {
            grid: ExpGrid::new(epsilon.get()),
            buckets: Vec::new(),
        }
    }

    /// Structural invariants of the lazy bucket vector: it never ends
    /// in a zero bucket (levels materialise only when an element clears
    /// them, and merges of well-formed histograms preserve this), and
    /// the derived suffix counters `c_i` are non-increasing in `i` by
    /// construction. Only compiled under `debug_invariants`.
    #[cfg(feature = "debug_invariants")]
    #[expect(
        clippy::indexing_slicing,
        reason = "`windows(2)` yields slices of exactly two counters"
    )]
    fn assert_buckets_consistent(&self) {
        assert!(
            self.buckets.last() != Some(&0),
            "trailing zero bucket: lazy materialisation invariant broken"
        );
        let c = self.counters();
        assert!(
            c.windows(2).all(|w| w[0] >= w[1]),
            "suffix counters must be non-increasing: {c:?}"
        );
    }

    /// The paper's counter `c_i` (number of elements `≥ (1+ε)ⁱ`) for
    /// each level, highest level last, saturating at `u64::MAX`.
    #[must_use]
    pub fn counters(&self) -> Vec<u64> {
        let mut suffix = 0u64;
        let mut c: Vec<u64> = self
            .buckets
            .iter()
            .rev()
            .map(|&b| {
                suffix = suffix.saturating_add(b);
                suffix
            })
            .collect();
        c.reverse();
        c
    }
}

/// Merges another histogram built with the same ε: bucket counts add
/// levelwise, so the merged estimate equals the estimate over the
/// concatenated streams. This makes Algorithm 1 embarrassingly
/// parallel over stream shards. Unlike the randomized estimators, no
/// shared randomness is needed — only a shared grid. A decoded frame
/// may carry any bucket count, so counts saturate at `u64::MAX`;
/// saturating sums of non-negative counts are associative, so any
/// shard split still merges to the serial histogram.
impl Mergeable for ExponentialHistogram {
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.grid, other.grid, "histograms must share epsilon");
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(b);
        }
        #[cfg(feature = "debug_invariants")]
        self.assert_buckets_consistent();
    }
}

/// Payload: the grid as a nested frame, then the lazy bucket vector.
/// Decode re-validates the lazy-materialisation invariant (no trailing
/// zero bucket) so every restored histogram is a state some update
/// sequence could have produced.
impl Snapshot for ExponentialHistogram {
    const TAG: u8 = 14;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_nested(&self.grid);
        w.put_usize(self.buckets.len());
        for &b in &self.buckets {
            w.put_u64(b);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let grid = r.get_nested::<ExpGrid>()?;
        let len = r.get_count(8)?;
        let mut buckets = Vec::with_capacity(len);
        for _ in 0..len {
            buckets.push(r.get_u64()?);
        }
        if buckets.last() == Some(&0) {
            return Err(SnapshotError::Invalid("trailing zero bucket"));
        }
        Ok(Self { grid, buckets })
    }
}

impl Estimate for ExponentialHistogram {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a level is at most a few thousand"
    )]
    fn estimate(&self) -> u64 {
        // Scan levels from the top; the first (highest) level whose
        // suffix count reaches its integer threshold wins.
        let mut suffix = 0u64;
        for (level, &b) in self.buckets.iter().enumerate().rev() {
            suffix = suffix.saturating_add(b);
            let t = self.grid.int_threshold(level as u32);
            if suffix >= t {
                return t;
            }
        }
        0
    }
}

impl AggregateEstimator for ExponentialHistogram {
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`level_of` returns a u32 level, and the buckets are resized to cover it before the increment"
    )]
    fn ingest(&mut self, value: u64) {
        let Some(level) = self.grid.level_of(value) else {
            return; // zero clears no threshold
        };
        let level = level as usize;
        if level >= self.buckets.len() {
            self.buckets.resize(level + 1, 0);
        }
        self.buckets[level] = self.buckets[level].saturating_add(1);
        #[cfg(feature = "debug_invariants")]
        self.assert_buckets_consistent();
    }
}

impl SpaceUsage for ExponentialHistogram {
    fn space_words(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::h_index;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn eps(e: f64) -> Epsilon {
        Epsilon::new(e).unwrap()
    }

    fn check_guarantee(values: &[u64], e: f64) {
        let mut est = ExponentialHistogram::new(eps(e));
        est.extend_from(values.iter().copied());
        let h = h_index(values);
        let got = est.estimate();
        assert!(got <= h, "over-estimate: got {got} truth {h} (eps {e})");
        assert!(
            got as f64 >= (1.0 - e) * h as f64,
            "under-estimate: got {got} truth {h} (eps {e})"
        );
    }

    // A decoded frame may carry any bucket count. Counts saturate, and a
    // split stream still merges to the serial histogram.
    #[test]
    fn huge_bucket_counts_saturate_and_merge_like_serial() {
        let mut huge = ExponentialHistogram::new(eps(0.5));
        huge.buckets = vec![1, u64::MAX];
        let (mut serial, _) = ExponentialHistogram::read_from(&huge.to_bytes()).unwrap();
        let mut left = serial.clone();
        let mut right = ExponentialHistogram::new(eps(0.5));
        for v in [1, 2, 3] {
            serial.ingest(v);
            right.ingest(v);
        }
        left.merge(&right);
        assert_eq!(left.frame_digest(), serial.frame_digest());
        assert_eq!(serial.counters(), vec![u64::MAX, u64::MAX, 1]);
        assert_eq!(serial.estimate(), serial.grid.int_threshold(1));
    }

    #[test]
    fn empty_and_zero_streams() {
        let est = ExponentialHistogram::new(eps(0.1));
        assert_eq!(est.estimate(), 0);
        let mut est = ExponentialHistogram::new(eps(0.1));
        est.extend_from([0u64, 0, 0]);
        assert_eq!(est.estimate(), 0);
        assert_eq!(est.space_words(), 0);
    }

    #[test]
    fn paper_example() {
        check_guarantee(&[5, 5, 6, 5, 5, 6, 5, 5, 5, 5], 0.1);
    }

    #[test]
    fn guarantee_on_fixed_shapes() {
        let staircase: Vec<u64> = (1..=1000).rev().collect();
        let flat: Vec<u64> = vec![500; 500];
        let one_big: Vec<u64> = std::iter::once(1_000_000).chain(vec![0; 99]).collect();
        for e in [0.05, 0.1, 0.2, 0.3, 0.5] {
            check_guarantee(&staircase, e);
            check_guarantee(&flat, e);
            check_guarantee(&one_big, e);
        }
    }

    #[test]
    fn order_invariant() {
        // Deterministic algorithm over a multiset: any order gives the
        // same answer.
        let mut rng = StdRng::seed_from_u64(0);
        let mut values: Vec<u64> = (0..200).map(|_| rng.random_range(0..500)).collect();
        let mut a = ExponentialHistogram::new(eps(0.2));
        a.extend_from(values.iter().copied());
        values.sort_unstable();
        let mut b = ExponentialHistogram::new(eps(0.2));
        b.extend_from(values.iter().copied());
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn counters_match_definition() {
        // ε = 0.5: integer thresholds 1, 2, 3, 4, 6, 8, 12, ...
        let values = [1u64, 2, 3, 4, 6];
        let mut est = ExponentialHistogram::new(eps(0.5));
        est.extend_from(values.iter().copied());
        // c_i = #elements ≥ T_i over T = [1, 2, 3, 4, 6]: [5, 4, 3, 2, 1].
        assert_eq!(est.counters(), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn space_is_logarithmic_in_max_value() {
        let mut est = ExponentialHistogram::new(eps(0.1));
        for v in [1u64, 10, 100, 1_000_000] {
            est.ingest(v);
        }
        // levels ≈ log_{1.1}(1e6) ≈ 145.
        let words = est.space_words();
        assert!(words > 100 && words < 200, "words = {words}");
    }

    #[test]
    fn space_bound_of_theorem_5() {
        // ≤ 2 ε⁻¹ ln n words for a stream of n elements with values ≤ n.
        for e in [0.1, 0.2, 0.5] {
            let n = 10_000u64;
            let mut est = ExponentialHistogram::new(eps(e));
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..n {
                est.ingest(rng.random_range(0..=n));
            }
            let bound = (2.0 / e) * (n as f64 + 1.0).ln() + 1.0;
            assert!(
                (est.space_words() as f64) <= bound,
                "eps {e}: {} words > bound {bound}",
                est.space_words()
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_guarantee_random_streams(
            values in proptest::collection::vec(0u64..100_000, 0..400),
            e_centi in 5u32..90,
        ) {
            let e = f64::from(e_centi) / 100.0;
            let mut est = ExponentialHistogram::new(eps(e));
            est.extend_from(values.iter().copied());
            let h = h_index(&values);
            let got = est.estimate();
            proptest::prop_assert!(got <= h);
            proptest::prop_assert!(got as f64 >= (1.0 - e) * h as f64);
        }

        #[test]
        fn prop_estimate_monotone_in_stream(
            values in proptest::collection::vec(0u64..10_000, 1..200),
        ) {
            let mut est = ExponentialHistogram::new(eps(0.2));
            let mut prev = 0;
            for &v in &values {
                est.ingest(v);
                let now = est.estimate();
                proptest::prop_assert!(now >= prev, "estimate decreased");
                prev = now;
            }
        }
    }
}
