//! Algorithm 2 / Theorem 6: the shifting window.
//!
//! Algorithm 1 keeps a counter for every grid level up to `log_{1+ε} n`.
//! The paper's observation: only a window of `O(ε⁻¹ log ε⁻¹)`
//! *consecutive* levels is ever decision-relevant. The window
//! `[lo, lo+r]` slides up: when the counter one above the bottom
//! reaches its own threshold, the bottom counter is discarded and a
//! fresh zero counter opens at the top.
//!
//! A counter created late misses the elements that cleared its level
//! before its creation. With window length `r ≥ log_{1+ε'}(3/ε') + 2`
//! (`ε' = ε/3`, the theorem's internal sharpening) that undercount is
//! at most `ε'·t_j` for level `j`: unwinding the shift triggers, the
//! missed elements for level `j` number at most
//! `Σ_k (t_{j−k·r} + 1) ≤ t_j (1+ε')^{−r}/(1−(1+ε')^{−r}) + j/r ≤ ε'·t_j`.
//! The query therefore accepts a level once its (undercounting) counter
//! reaches `(1−ε')·t_j` and reports `⌈(1−ε')·t_j⌉`, which keeps both
//! sides of the guarantee:
//!
//! * **never over**: a raw count `≥ (1−ε')t_j` of elements `≥ t_j`
//!   means at least `⌈(1−ε')t_j⌉` elements that large exist, so
//!   `h* ≥ ⌈(1−ε')t_j⌉`;
//! * **never more than ε under**: the level `i*` with
//!   `t_{i*} ≤ h* < t_{i*+1}` is always inside the window (a shift past
//!   it would certify `h* > h*`; a lag behind it would leave a counter
//!   `≥ (3/ε' − ε')·t_{lo+1}` unshifted), its counter is at least
//!   `h* − ε'·t_{i*} ≥ (1−ε')t_{i*}`, and
//!   `⌈(1−ε')t_{i*}⌉ ≥ (1−ε')h*/(1+ε') ≥ (1−ε)h*`.
//!
//! Space: `r + 2` words, independent of `n` — the point of Theorem 6.

use hindex_common::{AggregateEstimator, Epsilon, Estimate, ExpGrid, SpaceUsage};
use std::collections::VecDeque;

/// Deterministic `(1−ε)`-approximate streaming H-index in
/// `O(ε⁻¹ log ε⁻¹)` words (Algorithm 2).
///
/// ```
/// use hindex_common::{AggregateEstimator, Epsilon, Estimate, SpaceUsage};
/// use hindex_core::ShiftingWindow;
///
/// let mut est = ShiftingWindow::new(Epsilon::new(0.1).unwrap());
/// est.extend_from((1..=100_000).rev()); // h* = 50 000
/// assert!(est.estimate() >= 45_000);
/// assert!(est.space_words() < 200); // independent of the stream
/// ```
#[derive(Debug, Clone)]
pub struct ShiftingWindow {
    grid: ExpGrid,
    eps_inner: f64,
    /// Counters for levels `lo ..= lo + counters.len() − 1`.
    counters: VecDeque<u64>,
    lo: u32,
    /// Optional saturation level: once the window bottom passes this
    /// level the estimator freezes (used by Algorithm 3, which only
    /// needs this branch below a cap `β`).
    cap_level: Option<u32>,
    saturated: bool,
}

impl ShiftingWindow {
    /// Creates the estimator for accuracy `ε`.
    #[must_use]
    pub fn new(epsilon: Epsilon) -> Self {
        Self::build(epsilon, None)
    }

    /// Creates the estimator with estimates capped at roughly `cap`:
    /// once the window certifies an H-index above `cap` the estimator
    /// freezes (it is saturated). Algorithm 3 uses
    /// this to bound this branch's words to `log(β/ε)` bits each.
    #[must_use]
    pub(crate) fn with_cap(epsilon: Epsilon, cap: u64) -> Self {
        Self::build(epsilon, Some(cap))
    }

    fn build(epsilon: Epsilon, cap: Option<u64>) -> Self {
        let eps_inner = epsilon.third().get();
        let r = ((3.0 / eps_inner).ln() / (1.0 + eps_inner).ln()).ceil() as usize + 2;
        Self::with_window_len(epsilon, r, cap)
    }

    /// Creates the estimator with an explicit window length `r + 1`
    /// counters, bypassing the Theorem 6 sizing. Shorter windows void
    /// the undercount analysis — this exists for the E12 ablation that
    /// measures exactly how the guarantee degrades.
    #[must_use]
    pub fn with_window_len(epsilon: Epsilon, r: usize, cap: Option<u64>) -> Self {
        let eps_inner = epsilon.third().get();
        let grid = ExpGrid::new(eps_inner);
        let cap_level = cap.map(|c| grid.level_of(c.max(1)).unwrap_or(0) + 1);
        Self {
            grid,
            eps_inner,
            counters: VecDeque::from(vec![0u64; r.max(1) + 1]),
            lo: 0,
            cap_level,
            saturated: false,
        }
    }

    fn hi(&self) -> u32 {
        self.lo + self.counters.len() as u32 - 1
    }

    fn shift_if_due(&mut self) {
        while self.counters.len() >= 2 {
            let next_level = self.lo + 1;
            if self.counters[1] < self.grid.int_threshold(next_level) {
                break;
            }
            if let Some(cap_level) = self.cap_level {
                if next_level > cap_level {
                    self.saturated = true;
                    return;
                }
            }
            self.counters.pop_front();
            self.counters.push_back(0);
            self.lo += 1;
        }
    }
}

impl Estimate for ShiftingWindow {
    fn estimate(&self) -> u64 {
        let slack = 1.0 - self.eps_inner;
        for idx in (0..self.counters.len()).rev() {
            let level = self.lo + idx as u32;
            let t = self.grid.threshold(level);
            let bar = slack * t;
            if self.counters[idx] as f64 >= bar {
                return bar.ceil() as u64;
            }
        }
        0
    }
}

impl AggregateEstimator for ShiftingWindow {
    fn ingest(&mut self, value: u64) {
        if self.saturated {
            return;
        }
        let Some(level) = self.grid.level_of(value) else {
            return;
        };
        if level < self.lo {
            return; // below the window: decision-irrelevant by now
        }
        let top = level.min(self.hi());
        for j in 0..=(top - self.lo) as usize {
            self.counters[j] += 1;
        }
        self.shift_if_due();
    }

    /// Batched ingest via headroom segmentation. A shift can only fire
    /// once `counters[1]` reaches the next level's threshold, and each
    /// item raises it by at most one — so the next
    /// `threshold − counters[1]` items are guaranteed shift-free, the
    /// window bounds `[lo, hi]` are constant across them, and their
    /// prefix increments commute into one difference-array sweep. The
    /// shift cascade (and any cap saturation) then runs at the segment
    /// boundary, exactly where the scalar path would have run it, so
    /// the final state is bit-identical.
    fn ingest_batch(&mut self, values: &[u64]) {
        // Scratch difference array, zeroed incrementally: only the
        // prefix a segment actually touched is swept and re-cleared,
        // so light segments (few or low-level items) stay near the
        // scalar path's cost.
        let mut diff = vec![0i64; self.counters.len() + 1];
        let mut pos = 0;
        while pos < values.len() {
            if self.saturated {
                return;
            }
            let headroom = self
                .grid
                .int_threshold(self.lo + 1)
                .saturating_sub(self.counters[1])
                .max(1) as usize;
            let seg = headroom.min(values.len() - pos);
            let hi = self.hi();
            let mut hi_idx = 0usize; // one past the largest touched index
            for &value in &values[pos..pos + seg] {
                let Some(level) = self.grid.level_of(value) else {
                    continue;
                };
                if level < self.lo {
                    continue;
                }
                let top_idx = (level.min(hi) - self.lo) as usize;
                diff[0] += 1;
                diff[top_idx + 1] -= 1;
                hi_idx = hi_idx.max(top_idx + 1);
            }
            if hi_idx > 0 {
                let mut run = 0i64;
                for (j, d) in diff[..hi_idx].iter_mut().enumerate() {
                    run += *d;
                    *d = 0;
                    // `run` counts segment items whose clamped level is
                    // ≥ lo + j; never negative, zero beyond `hi_idx`.
                    self.counters[j] = self.counters[j].saturating_add(run as u64);
                }
                diff[hi_idx] = 0;
                self.shift_if_due();
            }
            // `pos + seg ≤ values.len()` by construction of `seg`;
            // saturating keeps that claim overflow-proof.
            pos = pos.saturating_add(seg);
        }
    }
}

impl SpaceUsage for ShiftingWindow {
    fn space_words(&self) -> usize {
        // Window counters plus the bottom-level index.
        self.counters.len() + 1
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
        let mut est = ShiftingWindow::new(eps(e));
        est.extend_from(values.iter().copied());
        let h = h_index(values);
        let got = est.estimate();
        assert!(got <= h, "over-estimate: got {got} truth {h} (eps {e})");
        assert!(
            got as f64 >= (1.0 - e) * h as f64,
            "under-estimate: got {got} truth {h} (eps {e})"
        );
    }

    #[test]
    fn empty_and_zeros() {
        let est = ShiftingWindow::new(eps(0.2));
        assert_eq!(est.estimate(), 0);
        let mut est = ShiftingWindow::new(eps(0.2));
        est.extend_from([0u64, 0]);
        assert_eq!(est.estimate(), 0);
    }

    #[test]
    fn paper_example() {
        check_guarantee(&[5, 5, 6, 5, 5, 6, 5, 5, 5, 5], 0.1);
    }

    #[test]
    fn guarantee_on_adversarial_shapes() {
        let staircase_up: Vec<u64> = (1..=2000).collect();
        let staircase_down: Vec<u64> = (1..=2000).rev().collect();
        let flat: Vec<u64> = vec![777; 1500];
        // All-huge values: every element clears every window level —
        // stresses the shifting cascade.
        let all_huge: Vec<u64> = vec![1_000_000; 1000];
        // Support arrives last: counters for high levels are young.
        let mut big_last: Vec<u64> = vec![3; 5000];
        big_last.extend(vec![10_000u64; 600]);
        for e in [0.1, 0.2, 0.3, 0.5] {
            check_guarantee(&staircase_up, e);
            check_guarantee(&staircase_down, e);
            check_guarantee(&flat, e);
            check_guarantee(&all_huge, e);
            check_guarantee(&big_last, e);
        }
    }

    #[test]
    fn tight_epsilons_still_hold() {
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<u64> = (0..3000).map(|_| rng.random_range(0..5000)).collect();
        for e in [0.05, 0.07] {
            check_guarantee(&values, e);
        }
    }

    #[test]
    fn space_independent_of_stream_length() {
        let mut est = ShiftingWindow::new(eps(0.2));
        let before = est.space_words();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100_000 {
            est.ingest(rng.random_range(0..1_000_000));
        }
        assert_eq!(est.space_words(), before, "window grew");
    }

    #[test]
    fn space_bound_of_theorem_6() {
        // ≤ 6 ε⁻¹ log(3 ε⁻¹) + O(1) words.
        for e in [0.05, 0.1, 0.2, 0.5] {
            let est = ShiftingWindow::new(eps(e));
            let bound = 6.0 / e * (3.0 / e).log2() + 8.0;
            assert!(
                (est.space_words() as f64) <= bound,
                "eps {e}: {} words > {bound}",
                est.space_words()
            );
        }
    }

    #[test]
    fn matches_exponential_histogram_closely() {
        // Both are (1−ε) approximations; they need not be equal, but on
        // a fixed stream both must straddle the truth.
        use crate::exponential_histogram::ExponentialHistogram;
        let mut rng = StdRng::seed_from_u64(2);
        let values: Vec<u64> = (0..5000).map(|_| rng.random_range(0..10_000)).collect();
        let h = h_index(&values);
        let e = 0.2;
        let mut a = ExponentialHistogram::new(eps(e));
        let mut b = ShiftingWindow::new(eps(e));
        a.extend_from(values.iter().copied());
        b.extend_from(values.iter().copied());
        for got in [a.estimate(), b.estimate()] {
            assert!(got <= h && got as f64 >= (1.0 - e) * h as f64);
        }
    }

    #[test]
    fn cap_freezes_at_beta() {
        let mut est = ShiftingWindow::with_cap(eps(0.2), 50);
        for _ in 0..10_000u64 {
            est.ingest(1_000_000);
        }
        assert!(est.saturated);
        // Saturation implies the true h exceeded the cap region; the
        // frozen estimate is still a valid lower bound.
        assert!(est.estimate() >= 50 / 2);
    }

    fn assert_same_state(batched: &ShiftingWindow, scalar: &ShiftingWindow) {
        assert_eq!(batched.counters, scalar.counters);
        assert_eq!(batched.lo, scalar.lo);
        assert_eq!(batched.saturated, scalar.saturated);
        assert_eq!(batched.estimate(), scalar.estimate());
    }

    #[test]
    fn batch_ingest_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(17);
        // Heavy tail so the window shifts many times mid-stream.
        let values: Vec<u64> = (0..6000)
            .map(|_| match rng.random_range(0..4u32) {
                0 => 0,
                1 => rng.random_range(1..50),
                _ => rng.random_range(50..200_000),
            })
            .collect();
        for e in [0.08, 0.2, 0.5] {
            let mut scalar = ShiftingWindow::new(eps(e));
            let mut batched = ShiftingWindow::new(eps(e));
            for &v in &values {
                scalar.ingest(v);
            }
            for chunk in values.chunks(997) {
                batched.ingest_batch(chunk);
            }
            assert_same_state(&batched, &scalar);
        }
    }

    #[test]
    fn batch_ingest_saturates_at_the_same_item() {
        // All-huge input drives the cascade into the cap; the batch
        // path must freeze with the identical counter image.
        let values = vec![1_000_000u64; 5000];
        let mut scalar = ShiftingWindow::with_cap(eps(0.2), 40);
        let mut batched = ShiftingWindow::with_cap(eps(0.2), 40);
        for &v in &values {
            scalar.ingest(v);
        }
        batched.ingest_batch(&values);
        assert!(batched.saturated);
        assert_same_state(&batched, &scalar);
    }

    #[test]
    fn batch_ingest_single_items_match_scalar() {
        // Degenerate batches of one exercise the headroom clamp.
        let mut scalar = ShiftingWindow::new(eps(0.3));
        let mut batched = ShiftingWindow::new(eps(0.3));
        for v in (0..500u64).map(|i| (i * 31) % 700) {
            scalar.ingest(v);
            batched.ingest_batch(&[v]);
        }
        assert_same_state(&batched, &scalar);
    }

    #[test]
    fn uncapped_never_saturates() {
        let mut est = ShiftingWindow::new(eps(0.2));
        for _ in 0..10_000u64 {
            est.ingest(1_000_000);
        }
        assert!(!est.saturated);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn prop_guarantee_random_streams(
            values in proptest::collection::vec(0u64..50_000, 0..500),
            e_centi in 8u32..90,
        ) {
            let e = f64::from(e_centi) / 100.0;
            let mut est = ShiftingWindow::new(eps(e));
            est.extend_from(values.iter().copied());
            let h = h_index(&values);
            let got = est.estimate();
            proptest::prop_assert!(got <= h, "got {} truth {}", got, h);
            proptest::prop_assert!(got as f64 >= (1.0 - e) * h as f64, "got {} truth {}", got, h);
        }

        #[test]
        fn prop_guarantee_sorted_orders(
            mut values in proptest::collection::vec(0u64..50_000, 0..500),
            ascending in proptest::bool::ANY,
        ) {
            if ascending {
                values.sort_unstable();
            } else {
                values.sort_unstable_by(|a, b| b.cmp(a));
            }
            let e = 0.15;
            let mut est = ShiftingWindow::new(eps(e));
            est.extend_from(values.iter().copied());
            let h = h_index(&values);
            let got = est.estimate();
            proptest::prop_assert!(got <= h);
            proptest::prop_assert!(got as f64 >= (1.0 - e) * h as f64);
        }
    }
}
