//! Compressed H-index timelines.
//!
//! Platforms plot "impact over time". Naïvely that means re-querying
//! and storing the estimate at every step; [`Timeline`] exploits two
//! facts to compress the whole trajectory:
//!
//! * under aggregate/cash-register streams the H-index is
//!   **monotone**, so it changes at most `h_final` times;
//! * a `(1+γ)`-geometric value grid needs only the *crossing points*
//!   — `O(γ⁻¹ log h_final)` checkpoints reproduce the curve to within
//!   `(1+γ)` everywhere.
//!
//! `Timeline` wraps any estimator's outputs: feed it
//! `(step, estimate)` observations (every step, or whenever you
//! query); it stores a checkpoint only when the estimate crosses the
//! next grid level, and answers `value_at(step)` by binary search.

use hindex_common::SpaceUsage;

/// A `(1+γ)`-compressed monotone trajectory of H-index estimates.
#[derive(Debug, Clone)]
pub struct Timeline {
    gamma: f64,
    /// Checkpoints `(step, value)`, strictly increasing in both.
    points: Vec<(u64, u64)>,
}

impl Timeline {
    /// Creates a timeline with value resolution `γ` (each stored
    /// checkpoint is at least `(1+γ)×` the previous value).
    ///
    /// # Panics
    ///
    /// Panics unless `γ > 0`.
    #[must_use]
    pub fn new(gamma: f64) -> Self {
        assert!(gamma.is_finite() && gamma > 0.0, "gamma must be positive");
        Self {
            gamma,
            points: Vec::new(),
        }
    }

    /// Records one observation. Non-monotone dips (possible with
    /// randomized estimators' noise) are clamped — the recorded curve
    /// is the running maximum.
    pub fn observe(&mut self, step: u64, estimate: u64) {
        let last = self.points.last().copied();
        match last {
            None => {
                if estimate > 0 {
                    self.points.push((step, estimate));
                }
            }
            Some((_, v)) => {
                if (estimate as f64) >= (v as f64) * (1.0 + self.gamma) {
                    self.points.push((step, estimate));
                }
            }
        }
    }

    /// The recorded value in force at `step` (0 before the first
    /// checkpoint). Within `(1+γ)` of the true running maximum at every
    /// observed step.
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`binary_search` returns `Ok(i)` with `i < len` and `Err(i)` with `i ≤ len`, and the last arm has `i ≥ 1`"
    )]
    pub fn value_at(&self, step: u64) -> u64 {
        match self.points.binary_search_by_key(&step, |&(s, _)| s) {
            Ok(i) => self.points[i].1,
            Err(0) => 0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// All checkpoints, oldest first.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn checkpoints(&self) -> &[(u64, u64)] {
        &self.points
    }

    /// Final recorded value.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn current(&self) -> u64 {
        self.points.last().map_or(0, |&(_, v)| v)
    }
}

impl SpaceUsage for Timeline {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated points fit in usize"
    )]
    fn space_words(&self) -> usize {
        2 * self.points.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::{AggregateEstimator, Epsilon, Estimate, h_index};

    #[test]
    fn empty_timeline() {
        let t = Timeline::new(0.1);
        assert_eq!(t.value_at(0), 0);
        assert_eq!(t.value_at(100), 0);
        assert_eq!(t.current(), 0);
    }

    #[test]
    fn records_growth_and_answers_queries() {
        let mut t = Timeline::new(0.5);
        // Running maxima: 1, 2, 3, 10, 10, 40.
        for (step, v) in [(0u64, 1u64), (1, 2), (2, 3), (3, 10), (4, 10), (5, 40)] {
            t.observe(step, v);
        }
        // γ = 0.5 → checkpoints at 1, 2, 3, 10, 40 (each ≥ 1.5× prior:
        // 2 ≥ 1.5, 3 ≥ 3, 10 ≥ 4.5, 40 ≥ 15).
        assert_eq!(t.checkpoints(), &[(0, 1), (1, 2), (2, 3), (3, 10), (5, 40)]);
        assert_eq!(t.value_at(0), 1);
        assert_eq!(t.value_at(4), 10);
        assert_eq!(t.value_at(5), 40);
        assert_eq!(t.value_at(999), 40);
    }

    #[test]
    fn within_gamma_of_running_max() {
        let gamma = 0.2;
        let mut t = Timeline::new(gamma);
        let mut running_max = 0u64;
        let mut estimates = Vec::new();
        // A slowly growing estimate sequence.
        for step in 0..1000u64 {
            let est = (step as f64).sqrt() as u64;
            running_max = running_max.max(est);
            t.observe(step, est);
            estimates.push(running_max);
        }
        for step in 0..1000u64 {
            let recorded = t.value_at(step);
            let truth = estimates[step as usize];
            assert!(recorded <= truth);
            assert!(
                (recorded as f64) * (1.0 + gamma) >= truth as f64,
                "step {step}: {recorded} vs {truth}"
            );
        }
    }

    #[test]
    fn checkpoint_count_logarithmic() {
        let mut t = Timeline::new(0.1);
        for step in 0..1_000_000u64 {
            t.observe(step, step);
        }
        // ≈ log_{1.1}(1e6) ≈ 145 checkpoints, not a million.
        let n = t.checkpoints().len();
        assert!(n <= 150, "{n} checkpoints");
    }

    #[test]
    fn pairs_with_a_real_estimator() {
        let mut est = crate::ShiftingWindow::new(Epsilon::new(0.1).unwrap());
        let mut t = Timeline::new(0.25);
        let values: Vec<u64> = (1..=5000).collect();
        for (step, &v) in values.iter().enumerate() {
            est.ingest(v);
            t.observe(step as u64, est.estimate());
        }
        let final_truth = h_index(&values);
        assert!(t.current() as f64 >= 0.7 * final_truth as f64);
        // Early steps recorded small values.
        assert!(t.value_at(10) <= 20);
        use hindex_common::SpaceUsage;
        assert!(t.space_words() < 150);
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn zero_gamma_rejected() {
        let _ = Timeline::new(0.0);
    }
}
