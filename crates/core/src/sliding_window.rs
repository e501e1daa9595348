//! Sliding-window H-index: the recency extension of §5.
//!
//! §5 names H-index variations "that take publication dates … into
//! account". The streaming form: the H-index of the **last `W`
//! publications** only, over an unbounded aggregate stream — old work
//! ages out, so the measure tracks *current* impact.
//!
//! No algorithm in the paper handles expiry (its counters only grow),
//! so this module composes Algorithm 1's threshold grid with the DGIM
//! sliding-window counters of [`hindex_sketch::Dgim`]: level `i`'s
//! counter becomes a DGIM instance over the indicator stream
//! "element ≥ (1+ε)ⁱ". DGIM contributes a further `(1±ε_w)` error on
//! each count, so the estimate satisfies, up to that noise, the
//! Theorem 5 sandwich against the window's true H-index —
//! `(1−ε)(1−ε_w)·h_W ≲ ĥ ≲ (1+ε_w)·h_W` — in
//! `O(ε⁻¹ ε_w⁻¹ log n log² W)` bits.

use hindex_common::{AggregateEstimator, Epsilon, Estimate, ExpGrid, SpaceUsage};
use hindex_sketch::Dgim;

/// Approximate H-index of the most recent `W` stream elements.
#[derive(Debug, Clone)]
pub struct SlidingHIndex {
    grid: ExpGrid,
    window: u64,
    /// DGIM precision parameter (buckets per size).
    k: usize,
    /// Per-level sliding counters of `#{recent elements ≥ t_i}`,
    /// created lazily like Algorithm 1's (a late counter starts at the
    /// shared elapsed time, which is exact: earlier bits were 0).
    counters: Vec<Dgim>,
    time: u64,
    /// DGIM's relative counting error, folded into the accept rule.
    eps_window: f64,
}

impl SlidingHIndex {
    /// Creates the estimator: grid accuracy `epsilon`, window length
    /// `window`, per-counter DGIM error `eps_window`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `eps_window ∉ (0, 1)`.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`eps_window ∈ (0, 1)` is asserted; float-to-int `as` saturates"
    )]
    pub fn new(epsilon: Epsilon, window: u64, eps_window: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            eps_window > 0.0 && eps_window < 1.0,
            "window accuracy must lie in (0,1)"
        );
        Self {
            grid: ExpGrid::new(epsilon.get()),
            window,
            k: (0.5 / eps_window).ceil() as usize,
            counters: Vec::new(),
            time: 0,
            eps_window,
        }
    }
}

impl Estimate for SlidingHIndex {
    /// Largest grid threshold whose (slack-adjusted) recent count
    /// reaches it.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a level is at most a few thousand; float-to-int `as` saturates"
    )]
    fn estimate(&self) -> u64 {
        let slack = 1.0 - self.eps_window;
        for (i, c) in self.counters.iter().enumerate().rev() {
            let t = self.grid.threshold(i as u32);
            if c.count() as f64 >= slack * t {
                return (slack * t).ceil() as u64;
            }
        }
        0
    }
}

impl AggregateEstimator for SlidingHIndex {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`time` counts ingested values and is at least 1 after the increment"
    )]
    fn ingest(&mut self, value: u64) {
        self.time += 1;
        let level = self.grid.level_of(value);
        // Extend to cover this value's level (new counters start at the
        // current time: all their past bits were 0 by definition).
        if let Some(l) = level {
            let l = l as usize;
            while self.counters.len() <= l {
                self.counters
                    .push(Dgim::started_at(self.window, self.k, self.time - 1));
            }
        }
        for (i, c) in self.counters.iter_mut().enumerate() {
            c.push(level.is_some_and(|l| l as usize >= i));
        }
    }

    /// Batched ingest with lazy counter synchronisation. The scalar
    /// path pushes one bit into **every** level counter per item; here
    /// an item only touches the counters it sets (levels `0..=l`),
    /// catching each one up with a collapsed zero run first. Counters
    /// above the item's level simply fall behind the shared clock and
    /// are re-synced once at the end of the batch. Since
    /// [`Dgim::push_zeros`] is state-identical to repeated
    /// `push(false)`, every counter consumes the exact bit sequence of
    /// the scalar path and the final state is bit-identical — at
    /// `O(l+1)` counter touches per item instead of `O(levels)`.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`time` counts ingested values and is at least 1 after the increment; no counter is ahead of the shared clock; the counters are extended to cover `l` first"
    )]
    fn ingest_batch(&mut self, values: &[u64]) {
        for &value in values {
            self.time += 1;
            let Some(level) = self.grid.level_of(value) else {
                continue;
            };
            let l = level as usize;
            while self.counters.len() <= l {
                self.counters
                    .push(Dgim::started_at(self.window, self.k, self.time - 1));
            }
            for c in &mut self.counters[..=l] {
                c.push_zeros(self.time - 1 - c.time());
                c.push(true);
            }
        }
        for c in &mut self.counters {
            c.push_zeros(self.time - c.time());
        }
    }
}

impl SpaceUsage for SlidingHIndex {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated counters fit in usize"
    )]
    fn space_words(&self) -> usize {
        self.counters.iter().map(SpaceUsage::space_words).sum::<usize>() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::h_index;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    fn eps(e: f64) -> Epsilon {
        Epsilon::new(e).unwrap()
    }

    /// Exact reference over the window.
    struct Exact {
        w: usize,
        buf: VecDeque<u64>,
    }

    impl Exact {
        fn new(w: usize) -> Self {
            Self { w, buf: VecDeque::new() }
        }
        fn push(&mut self, v: u64) {
            self.buf.push_back(v);
            if self.buf.len() > self.w {
                self.buf.pop_front();
            }
        }
        fn h(&self) -> u64 {
            let v: Vec<u64> = self.buf.iter().copied().collect();
            h_index(&v)
        }
    }

    #[test]
    fn empty_is_zero() {
        let est = SlidingHIndex::new(eps(0.2), 100, 0.1);
        assert_eq!(est.estimate(), 0);
    }

    #[test]
    fn within_window_behaves_like_algorithm_1() {
        // Stream shorter than the window: plain (1−ε)-approximation.
        let mut est = SlidingHIndex::new(eps(0.1), 10_000, 0.05);
        let values: Vec<u64> = (1..=500).collect();
        est.extend_from(values.iter().copied());
        let truth = h_index(&values);
        let got = est.estimate();
        assert!(got <= truth + 1);
        assert!(got as f64 >= 0.85 * truth as f64, "got {got} truth {truth}");
    }

    #[test]
    fn decays_after_burst() {
        // A burst of high-impact papers followed by junk: the windowed
        // H-index must fall once the burst expires.
        let w = 200u64;
        let mut est = SlidingHIndex::new(eps(0.2), w, 0.1);
        for _ in 0..150 {
            est.ingest(1_000);
        }
        let peak = est.estimate();
        assert!(peak >= 100, "peak {peak}");
        for _ in 0..400 {
            est.ingest(0);
        }
        let decayed = est.estimate();
        assert_eq!(decayed, 0, "old impact did not expire");
    }

    #[test]
    fn tracks_exact_window_h_on_random_streams() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = 300u64;
        let e_grid = 0.15;
        let e_win = 0.05;
        let mut est = SlidingHIndex::new(eps(e_grid), w, e_win);
        let mut exact = Exact::new(w as usize);
        let mut worst_under = 0.0f64;
        let mut worst_over = 0.0f64;
        for step in 0..3000 {
            let v = rng.random_range(0..400u64);
            est.ingest(v);
            exact.push(v);
            if step > 300 {
                let truth = exact.h() as f64;
                let got = est.estimate() as f64;
                if truth > 10.0 {
                    worst_under = worst_under.max((truth - got) / truth);
                    worst_over = worst_over.max((got - truth) / truth);
                }
            }
        }
        // Combined grid + DGIM error budget.
        let budget = e_grid + 2.0 * e_win + 0.02;
        assert!(worst_under <= budget, "under {worst_under} > {budget}");
        assert!(worst_over <= 2.0 * e_win + 0.02, "over {worst_over}");
    }

    #[test]
    fn regime_change_is_followed() {
        // High-impact era, then low-impact era: the estimate follows
        // with the window's lag.
        let w = 500u64;
        let mut est = SlidingHIndex::new(eps(0.2), w, 0.05);
        let mut exact = Exact::new(w as usize);
        for _ in 0..1000 {
            est.ingest(800);
            exact.push(800);
        }
        assert!(est.estimate() as f64 >= 0.7 * exact.h() as f64);
        for _ in 0..1000 {
            est.ingest(20);
            exact.push(20);
        }
        let truth = exact.h(); // now 20
        assert_eq!(truth, 20);
        let got = est.estimate();
        assert!(
            (got as f64 - truth as f64).abs() <= 0.35 * truth as f64,
            "got {got} truth {truth}"
        );
    }

    #[test]
    fn space_scales_with_levels_and_window_log() {
        use hindex_common::SpaceUsage;
        let mut est = SlidingHIndex::new(eps(0.2), 1 << 14, 0.1);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..(1 << 15) {
            est.ingest(rng.random_range(0..1_000_000));
        }
        // levels ≈ 76 at ε = 0.2 up to 1e6; each DGIM is O(k log W)
        // buckets ≈ 100 words.
        assert!(est.space_words() < 76 * 150, "{} words", est.space_words());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = SlidingHIndex::new(eps(0.2), 0, 0.1);
    }

    #[test]
    fn batch_ingest_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(11);
        // Mix of zeros (level None), small, and huge values so some
        // batches create counters mid-flight and some leave high
        // counters untouched for long stretches.
        let values: Vec<u64> = (0..4000)
            .map(|_| match rng.random_range(0..4u32) {
                0 => 0,
                1 => rng.random_range(1..20),
                2 => rng.random_range(20..5_000),
                _ => rng.random_range(5_000..1_000_000),
            })
            .collect();
        let mut scalar = SlidingHIndex::new(eps(0.15), 256, 0.1);
        let mut batched = SlidingHIndex::new(eps(0.15), 256, 0.1);
        for &v in &values {
            scalar.ingest(v);
        }
        // Uneven chunk sizes exercise the end-of-batch re-sync.
        for chunk in values.chunks(173) {
            batched.ingest_batch(chunk);
        }
        assert_eq!(batched.time, scalar.time);
        assert_eq!(batched.counters, scalar.counters);
        assert_eq!(batched.estimate(), scalar.estimate());
    }

    #[test]
    fn batch_of_all_zero_levels_only_advances_time() {
        let mut scalar = SlidingHIndex::new(eps(0.2), 64, 0.1);
        let mut batched = SlidingHIndex::new(eps(0.2), 64, 0.1);
        scalar.ingest(50); // materialise some counters
        batched.ingest_batch(&[50]);
        for _ in 0..200 {
            scalar.ingest(0);
        }
        batched.ingest_batch(&vec![0u64; 200]);
        assert_eq!(batched.counters, scalar.counters);
        assert_eq!(batched.estimate(), scalar.estimate());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn prop_window_h_tracked(
            values in proptest::collection::vec(0u64..2_000, 100..800),
            w in 50u64..200,
        ) {
            let e_grid = 0.2;
            let e_win = 0.05;
            let mut est = SlidingHIndex::new(eps(e_grid), w, e_win);
            let mut exact = Exact::new(w as usize);
            for &v in &values {
                est.ingest(v);
                exact.push(v);
            }
            let truth = exact.h() as f64;
            let got = est.estimate() as f64;
            proptest::prop_assert!(got >= (1.0 - e_grid - 2.0 * e_win) * truth - 2.0,
                "got {} truth {}", got, truth);
            proptest::prop_assert!(got <= (1.0 + 2.0 * e_win) * truth + 2.0,
                "got {} truth {}", got, truth);
        }
    }
}
