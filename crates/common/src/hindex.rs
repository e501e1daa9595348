//! Exact (offline) H-index computation.
//!
//! Implements Definition 1 of the paper: for a vector `V ∈ ℕⁿ`, the
//! H-index `h*(V)` is the largest `i` such that at least `i` entries of
//! `V` are `≥ i`. Equivalently, with `V'` the descending sort of `V`,
//! `h*(V) = max_i min(V'[i], i)` (1-indexed).
//!
//! [`h_index`] is the linear-time counting algorithm, no sort
//! required; the tests check it against the textbook scan over a
//! descending-sorted slice (`h_index_sorted_desc`, test-only).
//!
//! [`IncrementalHIndex`] maintains the exact H-index of a growing
//! multiset of values with `O(h)` words of state — the smallest possible
//! exact online representation and the paper's implicit "store
//! everything" strawman tightened to its minimal form. It is the exact
//! baseline the streaming algorithms are compared against in the
//! experiments (E11).

use crate::traits::SpaceUsage;

/// Exact H-index of a slice in `O(n)` time and `O(n)` scratch space.
///
/// Counting formulation: values are clamped to `n = values.len()`
/// (a value larger than `n` can never raise the H-index above `n`),
/// bucketed, and the largest `k` with `#{v ≥ k} ≥ k` is found by one
/// suffix scan.
///
/// ```
/// use hindex_common::h_index;
/// assert_eq!(h_index(&[5, 6, 5, 6, 5, 5, 5, 5, 5, 5]), 5);
/// assert_eq!(h_index(&[]), 0);
/// assert_eq!(h_index(&[0, 0, 0]), 0);
/// assert_eq!(h_index(&[100]), 1);
/// ```
#[must_use]
pub fn h_index(values: &[u64]) -> u64 {
    let n = values.len();
    if n == 0 {
        return 0;
    }
    let mut buckets = vec![0u64; n + 1];
    for &v in values {
        let idx = (v as usize).min(n);
        buckets[idx] += 1;
    }
    let mut at_least = 0u64;
    for k in (1..=n).rev() {
        at_least += buckets[k];
        if at_least >= k as u64 {
            return k as u64;
        }
    }
    0
}

/// Exact H-index of a slice already sorted in descending order.
///
/// `h*(V') = max_i min(V'[i], i)` with 1-based `i`. Used as an
/// independent test oracle for [`h_index`].
///
/// # Panics
///
/// Panics (debug builds) if the slice is not sorted descending.
#[cfg(test)]
fn h_index_sorted_desc(sorted: &[u64]) -> u64 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] >= w[1]),
        "input must be sorted in descending order"
    );
    let mut h = 0u64;
    for (i, &v) in sorted.iter().enumerate() {
        let rank = (i + 1) as u64;
        h = h.max(rank.min(v));
        if v < rank {
            break;
        }
    }
    h
}

/// The support of the H-index: the multiset of values `≥ h*(V)`.
///
/// This is `H(V)` from Definition 1 of the paper. Returned in
/// descending order.
///
/// ```
/// use hindex_common::h_support;
/// assert_eq!(h_support(&[3, 1, 4, 1, 5]), vec![5, 4, 3]);
/// ```
#[must_use]
pub fn h_support(values: &[u64]) -> Vec<u64> {
    let h = h_index(values);
    if h == 0 {
        return Vec::new();
    }
    let mut support: Vec<u64> = values.iter().copied().filter(|&v| v >= h).collect();
    support.sort_unstable_by(|a, b| b.cmp(a));
    support
}

/// Exact online H-index over a stream of aggregate values using `O(h)`
/// words.
///
/// Maintains a min-heap of the current H-support (the at-most `h + 1`
/// largest values that are each `≥ h`). Inserting a value either leaves
/// `h` unchanged or increases it by at most one, so a single heap
/// adjustment per element suffices.
///
/// This is the strongest exact baseline: its space grows linearly with
/// the true H-index, which experiment E11 contrasts with the paper's
/// sublinear sketches.
///
/// ```
/// use hindex_common::IncrementalHIndex;
/// let mut ih = IncrementalHIndex::new();
/// for v in [5u64, 6, 5, 6, 5, 5, 5, 5, 5, 5] {
///     ih.insert(v);
/// }
/// assert_eq!(ih.h_index(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalHIndex {
    /// Min-heap (via `Reverse`) of the values currently counted toward h.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    /// Number of values inserted so far.
    len: u64,
}

impl IncrementalHIndex {
    /// Creates an empty tracker (`h = 0`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one aggregate value into the multiset.
    pub fn insert(&mut self, value: u64) {
        self.len += 1;
        let h = self.heap.len() as u64;
        if value > h {
            self.heap.push(std::cmp::Reverse(value));
            // The heap now holds h + 1 values each ≥ h + 1? Only if the
            // smallest kept value clears the new bar; otherwise evict it.
            let new_h = self.heap.len() as u64;
            if let Some(&std::cmp::Reverse(min)) = self.heap.peek() {
                if min < new_h {
                    self.heap.pop();
                }
            }
        }
    }

    /// The exact H-index of everything inserted so far.
    #[must_use]
    pub fn h_index(&self) -> u64 {
        self.heap.len() as u64
    }

    /// Number of values inserted so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether anything has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl SpaceUsage for IncrementalHIndex {
    fn space_words(&self) -> usize {
        // One word per retained support value, plus the length counter.
        self.heap.len() + 1
    }
}

impl crate::traits::Estimate for IncrementalHIndex {
    fn estimate(&self) -> u64 {
        self.h_index()
    }
}

impl crate::traits::AggregateEstimator for IncrementalHIndex {
    fn ingest(&mut self, value: u64) {
        self.insert(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle straight from Definition 1.
    fn h_oracle(values: &[u64]) -> u64 {
        let n = values.len() as u64;
        (0..=n)
            .filter(|&i| values.iter().filter(|&&v| v >= i).count() as u64 >= i)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn paper_example_2() {
        // Example 2 of the paper: V with ten entries, h* = 5.
        let v = [5u64, 5, 6, 5, 5, 6, 5, 5, 5, 5];
        assert_eq!(h_index(&v), 5);
        assert_eq!(h_oracle(&v), 5);
    }

    #[test]
    fn empty_and_zeros() {
        assert_eq!(h_index(&[]), 0);
        assert_eq!(h_index(&[0]), 0);
        assert_eq!(h_index(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn single_values() {
        assert_eq!(h_index(&[1]), 1);
        assert_eq!(h_index(&[1000]), 1);
    }

    #[test]
    fn all_equal() {
        // k copies of k has h = k; k copies of m ≥ k also h = k.
        for k in 1..50u64 {
            let v: Vec<u64> = std::iter::repeat_n(k, k as usize).collect();
            assert_eq!(h_index(&v), k, "k={k}");
            let v: Vec<u64> = std::iter::repeat_n(k + 17, k as usize).collect();
            assert_eq!(h_index(&v), k, "k={k}");
        }
    }

    #[test]
    fn staircase() {
        // values n, n-1, ..., 1 → h = ceil(n/2)-ish: #{v ≥ k} = n-k+1 ≥ k
        // iff k ≤ (n+1)/2.
        for n in 1..100u64 {
            let v: Vec<u64> = (1..=n).rev().collect();
            assert_eq!(h_index(&v), n.div_ceil(2), "n={n}");
        }
    }

    #[test]
    fn values_exceeding_n_are_clamped() {
        let v = [u64::MAX, u64::MAX, u64::MAX];
        assert_eq!(h_index(&v), 3);
    }

    #[test]
    fn sorted_oracle_agrees() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![10, 8, 5, 4, 3],
            vec![25, 8, 5, 3, 3, 3],
            vec![9, 9, 9, 9, 9, 9, 9, 9, 9],
        ];
        for c in cases {
            let mut s = c.clone();
            s.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(h_index(&c), h_index_sorted_desc(&s), "case {c:?}");
        }
    }

    #[test]
    fn support_contents() {
        let v = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let h = h_index(&v); // values ≥ 4: {4,5,9,6} → h = 4
        assert_eq!(h, 4);
        assert_eq!(h_support(&v), vec![9, 6, 5, 4]);
    }

    #[test]
    fn support_empty_when_h_zero() {
        assert!(h_support(&[0, 0]).is_empty());
        assert!(h_support(&[]).is_empty());
    }

    #[test]
    fn incremental_matches_batch_on_permutations() {
        let base = [7u64, 2, 9, 4, 4, 4, 1, 0, 12, 5, 5, 3];
        // Try several orders: exact online must agree regardless.
        let orders: Vec<Vec<u64>> = vec![
            base.to_vec(),
            {
                let mut b = base.to_vec();
                b.sort_unstable();
                b
            },
            {
                let mut b = base.to_vec();
                b.sort_unstable_by(|a, b| b.cmp(a));
                b
            },
        ];
        for order in orders {
            let mut ih = IncrementalHIndex::new();
            for (i, &v) in order.iter().enumerate() {
                ih.insert(v);
                assert_eq!(
                    ih.h_index(),
                    h_index(&order[..=i]),
                    "prefix {:?}",
                    &order[..=i]
                );
            }
        }
    }

    #[test]
    fn incremental_space_is_h_plus_one() {
        let mut ih = IncrementalHIndex::new();
        for v in 1..=1000u64 {
            ih.insert(v);
        }
        let h = ih.h_index();
        assert!(ih.space_words() as u64 <= h + 2, "space ≈ h");
    }

    proptest::proptest! {
        #[test]
        fn prop_counting_matches_oracle(values in proptest::collection::vec(0u64..500, 0..200)) {
            proptest::prop_assert_eq!(h_index(&values), h_oracle(&values));
        }

        #[test]
        fn prop_sorted_matches_counting(mut values in proptest::collection::vec(0u64..500, 0..200)) {
            let unsorted = values.clone();
            values.sort_unstable_by(|a, b| b.cmp(a));
            proptest::prop_assert_eq!(h_index(&unsorted), h_index_sorted_desc(&values));
        }

        #[test]
        fn prop_incremental_matches_counting(values in proptest::collection::vec(0u64..300, 0..300)) {
            let mut ih = IncrementalHIndex::new();
            for &v in &values { ih.insert(v); }
            proptest::prop_assert_eq!(ih.h_index(), h_index(&values));
        }

        #[test]
        fn prop_h_index_bounds(values in proptest::collection::vec(0u64..10_000, 0..200)) {
            let h = h_index(&values);
            // 0 ≤ h ≤ n and h ≤ max value.
            proptest::prop_assert!(h <= values.len() as u64);
            proptest::prop_assert!(h <= values.iter().copied().max().unwrap_or(0));
        }

        #[test]
        fn prop_monotone_under_insertion(values in proptest::collection::vec(0u64..300, 1..100), extra in 0u64..300) {
            // Adding an element never decreases the H-index.
            let before = h_index(&values);
            let mut bigger = values.clone();
            bigger.push(extra);
            proptest::prop_assert!(h_index(&bigger) >= before);
            proptest::prop_assert!(h_index(&bigger) <= before + 1);
        }

        #[test]
        fn prop_support_size_at_least_h(values in proptest::collection::vec(0u64..300, 0..200)) {
            let h = h_index(&values);
            let s = h_support(&values);
            proptest::prop_assert!(s.len() as u64 >= h);
            proptest::prop_assert!(s.iter().all(|&v| v >= h) || h == 0);
        }
    }
}
