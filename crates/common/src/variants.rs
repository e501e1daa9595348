//! Exact computation of the H-index variants discussed in §5 of the
//! paper ("Extensions and Concluding Remarks").
//!
//! These are the offline ground truths for the streaming extension
//! estimators in `hindex-core::extensions`:
//!
//! * [`g_index`] — largest `g` such that the `g` most-cited papers have
//!   at least `g²` citations in total (the "k publications with a total
//!   of k² responses" variant named in §5, known in bibliometrics as
//!   Egghe's g-index);
//! * [`alpha_index`] — largest `k` such that at least `k` papers have
//!   `≥ α·k` citations each, a thresholded generalization with
//!   `α = 1` recovering the H-index.

/// Exact g-index: largest `g` with `Σ_{top g} V ≥ g²`.
///
/// ```
/// use hindex_common::variants::g_index;
/// // prefix sums 10, 15, 18, 19 vs g² = 1, 4, 9, 16: all clear, so g = 4.
/// assert_eq!(g_index(&[10, 5, 3, 1]), 4);
/// // prefix sums 9, 14, 15, 15 vs 1, 4, 9, 16: the last fails, so g = 3.
/// assert_eq!(g_index(&[9, 5, 1, 0]), 3);
/// assert_eq!(g_index(&[]), 0);
/// ```
#[must_use]
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "ranks are at most `values.len()`, so `rank²` and the sum of up to usize::MAX u64 values fit in u128 and `rank` fits in u64"
)]
pub fn g_index(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut sum: u128 = 0;
    let mut g = 0u64;
    for (i, &v) in sorted.iter().enumerate() {
        let rank = (i + 1) as u128;
        sum += u128::from(v);
        // The prefix sum can fall behind g² and later catch up again, so
        // scan all ranks rather than stopping at the first failure.
        if sum >= rank * rank {
            g = rank as u64;
        }
    }
    g
}

/// Exact α-index: largest `k` such that `#{v : v ≥ α·k} ≥ k`.
///
/// `alpha = 1.0` recovers the H-index. Useful ground truth for the
/// thresholded-impact streaming extension.
///
/// ```
/// use hindex_common::variants::alpha_index;
/// let v = [10u64, 10, 10, 10];
/// assert_eq!(alpha_index(&v, 1.0), 4);
/// assert_eq!(alpha_index(&v, 5.0), 2); // need k papers with ≥ 5k citations
/// ```
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    reason = "float-to-int `as` saturates, and a bar at u64::MAX only makes `count` smaller"
)]
pub fn alpha_index(values: &[u64], alpha: f64) -> u64 {
    assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
    let n = values.len() as u64;
    let mut best = 0u64;
    for k in 1..=n {
        let bar = (alpha * k as f64).ceil() as u64;
        let count = values.iter().filter(|&&v| v >= bar).count() as u64;
        if count >= k {
            best = k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hindex::h_index;

    #[test]
    fn g_index_examples() {
        assert_eq!(g_index(&[10, 5, 3, 1]), 4);
        assert_eq!(g_index(&[9, 5, 1, 0]), 3);
        assert_eq!(g_index(&[]), 0);
        assert_eq!(g_index(&[0, 0]), 0);
        // One blockbuster paper: top-g sum = 100 ≥ g² for g ≤ 10, but g
        // is also capped by the number of papers.
        assert_eq!(g_index(&[100]), 1);
        let v: Vec<u64> = std::iter::once(100).chain(std::iter::repeat_n(0, 20)).collect();
        assert_eq!(g_index(&v), 10);
    }

    #[test]
    fn g_index_at_least_h_index() {
        // Classic bibliometric fact: g ≥ h.
        let cases: Vec<Vec<u64>> = vec![
            vec![10, 8, 5, 4, 3],
            vec![1, 1, 1, 1],
            vec![25, 8, 5, 3, 3, 3],
            vec![9, 9, 9],
        ];
        for c in cases {
            assert!(g_index(&c) >= h_index(&c), "case {c:?}");
        }
    }

    #[test]
    fn alpha_one_is_h_index() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![5, 6, 5, 6, 5, 5, 5, 5, 5, 5],
            vec![10, 8, 5, 4, 3],
            vec![0, 0, 7],
        ];
        for c in cases {
            assert_eq!(alpha_index(&c, 1.0), h_index(&c), "case {c:?}");
        }
    }

    #[test]
    fn alpha_index_decreases_in_alpha() {
        let v = [12u64, 9, 7, 7, 4, 2, 1];
        let mut prev = u64::MAX;
        for a in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let k = alpha_index(&v, a);
            assert!(k <= prev, "alpha={a}");
            prev = k;
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn alpha_zero_panics() {
        let _ = alpha_index(&[1], 0.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_g_at_least_h(values in proptest::collection::vec(0u64..1000, 0..100)) {
            proptest::prop_assert!(g_index(&values) >= h_index(&values));
        }

        #[test]
        fn prop_g_bounded_by_n(values in proptest::collection::vec(0u64..1000, 0..100)) {
            proptest::prop_assert!(g_index(&values) <= values.len() as u64);
        }

        #[test]
        fn prop_alpha_one_matches_h(values in proptest::collection::vec(0u64..300, 0..100)) {
            proptest::prop_assert_eq!(alpha_index(&values, 1.0), h_index(&values));
        }
    }
}
