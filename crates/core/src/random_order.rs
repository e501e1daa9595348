//! Algorithms 3 + 4 / Theorem 9: random-order streams.
//!
//! When the aggregate stream is a uniformly random permutation of the
//! underlying vector, the H-index can be `(1±ε)`-estimated from a short
//! *prefix*, in constant words.
//!
//! Structure (Algorithm 3): two branches run in parallel and the final
//! answer is their maximum.
//!
//! * **Small regime** (`h* ≤ β/ε`): a [`ShiftingWindow`] capped at `β`
//!   — every word of this branch only needs `log(β/ε)` bits.
//! * **Large regime** (`h* ≥ β/ε`, Algorithm 4): guesses
//!   `g_i = n/(1+ε)ⁱ` descend from `n`. The stream is cut into
//!   consecutive segments, segment `i` of length `Lᵢ = ⌈β(1+ε)ⁱ⌉`;
//!   guess `i` is scored on the window `Wᵢ = sᵢ₋₁ ∪ sᵢ` (the
//!   pseudocode's `c ← c'` carry implements the overlap), so that if
//!   `h* ≈ g_i` the expected number of window elements `≥ g_i` is
//!   `x = β(2+ε)/(1+ε)`. The first guess whose count reaches
//!   `(1−ε/3)·x` is accepted.
//!
//! **Deviation (documented in DESIGN.md):** the paper's acceptance test
//! is two-sided (`c ≤ (1+ε)x` as well). A two-sided test cannot accept
//! on vectors where the count jumps discontinuously across the true
//! `h*` (e.g. all elements equal: counts go from `≈ 0` straight past
//! `(1+ε)x`), so we accept on the lower bound alone, which the
//! concentration argument actually needs: guesses `g ≥ (1+ε)h*` have
//! expected count `≤ x/(1+ε) < (1−ε/3)x` and are rejected whp, while
//! any guess `g ≤ h*` has expected count `≥ x` and is accepted whp.
//! `β` defaults to the paper's `150 ε⁻³ ln ln n` and is overridable —
//! experiment E3 measures how much smaller β can go in practice.

use crate::shifting_window::ShiftingWindow;
use hindex_common::{AggregateEstimator, Delta, Epsilon, Estimate, SpaceUsage};

/// Configuration for [`RandomOrderEstimator`].
#[derive(Debug, Clone, Copy)]
pub struct RandomOrderParams {
    /// Accuracy `ε`.
    pub epsilon: Epsilon,
    /// Failure probability `δ` (enters only through the default β).
    pub delta: Delta,
    /// Stream length `n` (the paper's Algorithm 4 needs the vector
    /// dimension to form its guesses).
    pub n: u64,
    /// Override for the paper's `β = 150 ε⁻³ ln ln n`. Smaller values
    /// shrink both the constant-space branch's cap and the windows.
    pub beta_override: Option<u64>,
}

impl RandomOrderParams {
    /// Standard parameters with the paper's β.
    #[must_use]
    pub fn new(epsilon: Epsilon, delta: Delta, n: u64) -> Self {
        Self {
            epsilon,
            delta,
            n,
            beta_override: None,
        }
    }

    /// The β in effect.
    #[must_use]
    pub(crate) fn beta(&self) -> u64 {
        if let Some(b) = self.beta_override {
            return b.max(1);
        }
        let e = self.epsilon.get();
        let lnln = (self.n.max(16) as f64).ln().ln().max(1.0);
        (150.0 * e.powi(-3) * lnln).ceil() as u64
    }
}

/// `(1±ε)` whp H-index estimator for uniformly random-order aggregate
/// streams (Algorithm 3 = capped Algorithm 2 ∥ Algorithm 4).
#[derive(Debug, Clone)]
pub struct RandomOrderEstimator {
    params: RandomOrderParams,
    /// Small-regime branch.
    small: ShiftingWindow,
    // ---- Algorithm 4 state: the "six words" ----
    /// Current guess index `i`.
    guess: u32,
    /// Elements consumed so far.
    position: u64,
    /// End position (exclusive) of the current segment.
    segment_end: u64,
    /// Count of window elements `≥ g_i` (carried across the segment
    /// pair).
    c: u64,
    /// Count of current-segment elements `≥ g_{i+1}`.
    c_next: u64,
    /// Accepted output of Algorithm 4 (0 until acceptance).
    accepted: u64,
    /// Whether Algorithm 4 is still scanning.
    active: bool,
}

impl RandomOrderEstimator {
    /// Creates the estimator.
    ///
    /// # Panics
    ///
    /// Panics if `params.n == 0`.
    #[must_use]
    pub fn new(params: RandomOrderParams) -> Self {
        assert!(params.n > 0, "the stream length must be known and positive");
        // The small branch must cover everything Algorithm 4 does not,
        // i.e. h* up to β/ε (Theorem 9's case split; its words are
        // "log(β/ε) bits" for exactly this reason).
        let beta = params.beta();
        let cap = (beta as f64 / params.epsilon.get()).ceil() as u64;
        let small = ShiftingWindow::with_cap(params.epsilon, cap);
        let mut est = Self {
            params,
            small,
            guess: 0,
            position: 0,
            segment_end: 0,
            c: 0,
            c_next: 0,
            accepted: 0,
            active: true,
        };
        est.segment_end = est.segment_len(0);
        est
    }

    fn segment_len(&self, i: u32) -> u64 {
        let beta = self.params.beta() as f64;
        let base = self.params.epsilon.base();
        (beta * base.powi(i as i32)).ceil() as u64
    }

    /// Guess value `g_i = n/(1+ε)ⁱ`.
    fn guess_value(&self, i: u32) -> f64 {
        self.params.n as f64 / self.params.epsilon.base().powi(i as i32)
    }

    /// Target count `x = β(2+ε)/(1+ε)`.
    fn x(&self) -> f64 {
        let e = self.params.epsilon.get();
        self.params.beta() as f64 * (2.0 + e) / (1.0 + e)
    }

    /// The β in effect (exposed for experiments).
    #[must_use]
    pub fn beta(&self) -> u64 {
        self.params.beta()
    }

    /// Whether Algorithm 4 accepted a guess (the large-h* regime
    /// answer).
    #[must_use]
    pub fn large_regime_accepted(&self) -> bool {
        self.accepted > 0
    }
}

impl Estimate for RandomOrderEstimator {
    fn estimate(&self) -> u64 {
        self.accepted.max(self.small.estimate())
    }
}

impl AggregateEstimator for RandomOrderEstimator {
    fn ingest(&mut self, value: u64) {
        self.small.ingest(value);
        if !self.active {
            return;
        }
        let v = value as f64;
        if v >= self.guess_value(self.guess) {
            self.c += 1;
        }
        if v >= self.guess_value(self.guess + 1) {
            self.c_next += 1;
        }
        self.position += 1;
        if self.position >= self.segment_end {
            // Segment i finished: test guess i.
            let bar = (1.0 - self.params.epsilon.get() / 3.0) * self.x();
            if self.c as f64 >= bar {
                self.accepted = self.guess_value(self.guess).floor() as u64;
                self.active = false;
                return;
            }
            // Move to guess i+1; its window carries this segment's
            // count against g_{i+1}.
            self.guess += 1;
            self.c = self.c_next;
            self.c_next = 0;
            self.segment_end = self.position + self.segment_len(self.guess);
            // Guesses below the β/ε bar are the small branch's job.
            let floor_guess = self.params.beta() as f64 / self.params.epsilon.get();
            if self.guess_value(self.guess) < floor_guess || self.position >= self.params.n {
                self.active = false;
            }
        }
    }
}

impl SpaceUsage for RandomOrderEstimator {
    fn space_words(&self) -> usize {
        // Algorithm 4: guess, position, segment_end, c, c_next,
        // accepted — the paper's six words — plus the capped shifting
        // window.
        6 + self.small.space_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::h_index;
    use hindex_stream::generator::planted_h_corpus;
    use hindex_stream::StreamOrder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(e: f64, n: u64, beta: u64) -> RandomOrderParams {
        RandomOrderParams {
            epsilon: Epsilon::new(e).unwrap(),
            delta: Delta::new(0.05).unwrap(),
            n,
            beta_override: Some(beta),
        }
    }

    fn run_on(values: &[u64], p: RandomOrderParams) -> u64 {
        let mut est = RandomOrderEstimator::new(p);
        est.extend_from(values.iter().copied());
        est.estimate()
    }

    #[test]
    fn paper_beta_formula() {
        let p = RandomOrderParams::new(
            Epsilon::new(0.2).unwrap(),
            Delta::new(0.05).unwrap(),
            1_000_000,
        );
        // 150 · 0.2⁻³ · ln ln 1e6 ≈ 150 · 125 · 2.63 ≈ 49 000.
        let beta = p.beta();
        assert!((45_000..55_000).contains(&beta), "beta {beta}");
    }

    #[test]
    fn small_h_handled_by_capped_window() {
        // h* well below β/ε: Algorithm 2 branch answers.
        let e = 0.2;
        let corpus = planted_h_corpus(40, 5_000, 3);
        let mut values = corpus.citation_counts();
        let mut rng = StdRng::seed_from_u64(1);
        StreamOrder::Random.apply(&mut values, &mut rng);
        let got = run_on(&values, params(e, values.len() as u64, 1_000));
        let h = h_index(&values);
        assert_eq!(h, 40);
        assert!(got <= h && got as f64 >= (1.0 - e) * h as f64, "got {got}");
    }

    #[test]
    fn large_h_accepted_by_windows() {
        // h* far above β/ε with a small β override: Algorithm 4 accepts.
        let e = 0.2;
        let n = 40_000usize;
        let h = 20_000u64; // half the papers are in the support
        let corpus = planted_h_corpus(h, n, 7);
        for seed in 0..10u64 {
            let mut values = corpus.citation_counts();
            let mut rng = StdRng::seed_from_u64(seed);
            StreamOrder::Random.apply(&mut values, &mut rng);
            let p = params(e, n as u64, 400); // β/ε = 2000 ≪ h*
            let mut est = RandomOrderEstimator::new(p);
            est.extend_from(values.iter().copied());
            let got = est.estimate();
            assert!(
                (got as f64) >= (1.0 - e) * h as f64 && (got as f64) <= (1.0 + e) * h as f64,
                "seed {seed}: got {got} vs h {h}"
            );
        }
    }

    #[test]
    fn all_equal_vector_is_estimated() {
        // The degenerate case that breaks a two-sided acceptance test:
        // every element equals h*.
        let e = 0.2;
        let n = 30_000u64;
        let h = 10_000u64;
        let mut values = vec![h; h as usize];
        values.extend(vec![0u64; (n - h) as usize]);
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = values.clone();
            StreamOrder::Random.apply(&mut v, &mut rng);
            let got = run_on(&v, params(e, n, 300));
            assert!(
                (got as f64) >= (1.0 - e) * h as f64 && (got as f64) <= (1.0 + e) * h as f64,
                "seed {seed}: got {got}"
            );
        }
    }

    #[test]
    fn never_wildly_over_on_random_order() {
        // Acceptance must not trigger while guesses are far above h*.
        let e = 0.2;
        let n = 50_000usize;
        let h = 5_000u64;
        let corpus = planted_h_corpus(h, n, 11);
        for seed in 0..10u64 {
            let mut values = corpus.citation_counts();
            let mut rng = StdRng::seed_from_u64(100 + seed);
            StreamOrder::Random.apply(&mut values, &mut rng);
            let got = run_on(&values, params(e, n as u64, 400));
            assert!(
                (got as f64) <= (1.0 + e) * h as f64,
                "seed {seed}: got {got} ≫ h {h}"
            );
        }
    }

    #[test]
    fn six_words_plus_capped_window() {
        let p = params(0.2, 1_000_000, 500);
        let est = RandomOrderEstimator::new(p);
        // The Algorithm 4 state is exactly six words; the rest is the
        // capped small-regime window.
        let words = est.space_words();
        let window_words = ShiftingWindow::with_cap(Epsilon::new(0.2).unwrap(), 500).space_words();
        assert_eq!(words, 6 + window_words);
    }

    #[test]
    fn zero_stream() {
        let p = params(0.3, 100, 10);
        let got = run_on(&vec![0u64; 100], p);
        assert_eq!(got, 0);
    }

    #[test]
    #[should_panic(expected = "must be known and positive")]
    fn zero_n_panics() {
        let _ = RandomOrderEstimator::new(params(0.2, 0, 10));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn prop_random_order_guarantee(
            h_thousands in 5u64..20,
            seed in proptest::num::u64::ANY,
        ) {
            let e = 0.25;
            let h = h_thousands * 1000;
            let n = (4 * h) as usize;
            let corpus = planted_h_corpus(h, n, seed);
            let mut values = corpus.citation_counts();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
            StreamOrder::Random.apply(&mut values, &mut rng);
            let got = run_on(&values, params(e, n as u64, 300));
            proptest::prop_assert!((got as f64) >= (1.0 - e) * h as f64, "got {} h {}", got, h);
            proptest::prop_assert!((got as f64) <= (1.0 + e) * h as f64, "got {} h {}", got, h);
        }
    }
}
