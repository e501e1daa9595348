//! §5 extensions: streaming variants of the H-index.
//!
//! The paper closes by naming variations "based on different functions
//! of the number of responses with respect to the number of
//! publications like k publications with a total of k² responses".
//! Two of those are implemented here with the same exponential-level
//! machinery as Algorithm 1:
//!
//! * [`StreamingGIndex`] — the "total of k²" variant (Egghe's g-index):
//!   per level the sketch keeps a *count* and a *sum* of the elements
//!   clearing it; the top-k sum is then sandwiched between adjacent
//!   levels, giving a `(1−O(ε))` under-approximation of g.
//! * [`StreamingAlphaIndex`] — "at least k publications with `≥ α·k`
//!   responses each": Algorithm 1 with the thresholds scaled by α
//!   (`α = 1` recovers the H-index exactly).

use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use hindex_common::{AggregateEstimator, Epsilon, Estimate, ExpGrid, Mergeable, SpaceUsage};

/// Streaming `(1−O(ε))` g-index estimator over aggregate streams.
#[derive(Debug, Clone)]
pub struct StreamingGIndex {
    grid: ExpGrid,
    /// Per top-level element counts (suffix-summed at query time).
    counts: Vec<u64>,
    /// Per top-level element sums.
    sums: Vec<u128>,
    /// Total elements seen, including zeros (g may count zero-citation
    /// papers toward k).
    n_seen: u64,
}

impl StreamingGIndex {
    /// Creates the estimator for accuracy `ε`.
    #[must_use]
    pub fn new(epsilon: Epsilon) -> Self {
        Self {
            grid: ExpGrid::new(epsilon.get()),
            counts: Vec::new(),
            sums: Vec::new(),
            n_seen: 0,
        }
    }

    /// Suffix aggregates: `(count ≥ t_i, sum of elements ≥ t_i)` per
    /// level, saturating.
    #[expect(
        clippy::indexing_slicing,
        reason = "`out`, `counts` and `sums` all have `counts.len()` entries"
    )]
    fn suffix(&self) -> Vec<(u64, u128)> {
        let mut out = vec![(0u64, 0u128); self.counts.len()];
        let mut c = 0u64;
        let mut s = 0u128;
        for i in (0..self.counts.len()).rev() {
            c = c.saturating_add(self.counts[i]);
            s = s.saturating_add(self.sums[i]);
            out[i] = (c, s);
        }
        out
    }

    /// Lower bound on the sum of the `k` largest elements, from the
    /// level aggregates.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        reason = "`suffix` is non-empty and `m + 1` is checked against its length; `fill ≤ k` and thresholds fit u64, so the u128 product fits; a level is at most a few thousand"
    )]
    fn top_k_sum_lower(&self, k: u64, suffix: &[(u64, u128)]) -> u128 {
        if suffix.is_empty() || k == 0 {
            return 0;
        }
        // Find the deepest level m with count ≥ k; elements above level
        // m+1 are all in the top k, the remainder is filled at value
        // ≥ t_m.
        let mut m: Option<usize> = None;
        for (level, &(c, _)) in suffix.iter().enumerate() {
            if c >= k {
                m = Some(level);
            } else {
                break;
            }
        }
        let Some(m) = m else {
            // Fewer than k non-zero elements in total: the top-k sum is
            // simply everything.
            return suffix[0].1;
        };
        let (above_c, above_s) = if m + 1 < suffix.len() {
            suffix[m + 1]
        } else {
            (0, 0)
        };
        let fill = u128::from(k.saturating_sub(above_c));
        above_s.saturating_add(fill * u128::from(self.grid.int_threshold(m as u32)))
    }
}

/// Merges another g-index sketch built with the same ε: level counts,
/// level sums and the element tally all add, so the merged estimate
/// equals the estimate over the concatenated streams, deterministically.
/// A decoded frame may carry any tally, so all three saturate; saturating
/// sums of non-negative values are associative, so any shard split still
/// merges to the serial sketch.
impl Mergeable for StreamingGIndex {
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.grid, other.grid, "sketches must share epsilon");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
            self.sums.resize(other.sums.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(b);
        }
        for (a, &b) in self.sums.iter_mut().zip(&other.sums) {
            *a = a.saturating_add(b);
        }
        self.n_seen = self.n_seen.saturating_add(other.n_seen);
    }
}

/// Payload: the grid, one shared level count, the per-level counts,
/// the per-level sums (u128), and the element tally. `counts` and
/// `sums` always resize together, so a single length serves both; the
/// lazy-materialisation invariant (no trailing all-zero level) is
/// re-validated on decode.
impl Snapshot for StreamingGIndex {
    const TAG: u8 = 19;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_nested(&self.grid);
        w.put_usize(self.counts.len());
        for &c in &self.counts {
            w.put_u64(c);
        }
        for &s in &self.sums {
            w.put_u128(s);
        }
        w.put_u64(self.n_seen);
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let grid = r.get_nested::<ExpGrid>()?;
        let len = r.get_count(24)?; // 8 count + 16 sum bytes per level
        let mut counts = Vec::with_capacity(len);
        for _ in 0..len {
            counts.push(r.get_u64()?);
        }
        let mut sums = Vec::with_capacity(len);
        for _ in 0..len {
            sums.push(r.get_u128()?);
        }
        if counts.last() == Some(&0) {
            return Err(SnapshotError::Invalid("trailing empty level"));
        }
        let n_seen = r.get_u64()?;
        Ok(Self { grid, counts, sums, n_seen })
    }
}

impl Estimate for StreamingGIndex {
    /// Estimates the g-index: the largest grid value `k` whose
    /// (under-approximated) top-k sum reaches `k²`. The result is
    /// `≤ g` and `≥ (1−O(ε))·g`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`k` fits u64, so `k²` fits u128"
    )]
    fn estimate(&self) -> u64 {
        let suffix = self.suffix();
        let mut best = 0u64;
        // Candidates: k = 1 and every grid threshold up to n_seen.
        let mut level = 0u32;
        loop {
            let k = self.grid.int_threshold(level);
            if k > self.n_seen {
                break;
            }
            let lower = self.top_k_sum_lower(k, &suffix);
            if lower >= u128::from(k) * u128::from(k) {
                best = best.max(k);
            }
            // The saturated threshold is the last candidate (a decoded
            // `n_seen` of u64::MAX would otherwise never end the loop).
            match level.checked_add(1) {
                Some(next) if k < u64::MAX => level = next,
                _ => break,
            }
        }
        best
    }
}

impl AggregateEstimator for StreamingGIndex {
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "the levels are resized to cover `level` first"
    )]
    fn ingest(&mut self, value: u64) {
        self.n_seen = self.n_seen.saturating_add(1);
        let Some(level) = self.grid.level_of(value) else {
            return;
        };
        let level = level as usize;
        if level >= self.counts.len() {
            self.counts.resize(level + 1, 0);
            self.sums.resize(level + 1, 0);
        }
        self.counts[level] = self.counts[level].saturating_add(1);
        self.sums[level] = self.sums[level].saturating_add(u128::from(value));
    }
}

impl SpaceUsage for StreamingGIndex {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated levels fit in usize"
    )]
    fn space_words(&self) -> usize {
        // One count word and two sum words (u128) per level.
        3 * self.counts.len() + 1
    }
}

/// Streaming α-index: largest `k` with at least `k` elements `≥ α·k`
/// (`α = 1` is the H-index).
#[derive(Debug, Clone)]
pub struct StreamingAlphaIndex {
    grid: ExpGrid,
    alpha: f64,
    /// Per top-alpha-level counts.
    buckets: Vec<u64>,
}

impl StreamingAlphaIndex {
    /// Creates the estimator.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is finite and positive.
    #[must_use]
    pub fn new(epsilon: Epsilon, alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        Self {
            grid: ExpGrid::new(epsilon.get()),
            alpha,
            buckets: Vec::new(),
        }
    }

    /// The citation bar for the level's integer candidate
    /// `k = ⌈(1+ε)ⁱ⌉`: the smallest integer `≥ α·k`. Scaling the
    /// *integer* candidate (rather than the real threshold) keeps the
    /// certificate sound: `k` elements `≥ ⌈α·k⌉` prove the α-index is
    /// at least `k`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates"
    )]
    fn alpha_threshold(&self, level: u32) -> u64 {
        let t = self.alpha * self.grid.int_threshold(level) as f64;
        let nearest = t.round();
        if (t - nearest).abs() <= 1e-9 * nearest.max(1.0) {
            nearest as u64
        } else {
            t.ceil() as u64
        }
    }

    /// Whether `value` clears the scaled threshold of `level`, with the
    /// same beyond-`u64::MAX` guard as [`ExpGrid::clears`] (a saturated
    /// cast must not let `u64::MAX` clear every level).
    fn alpha_clears(&self, value: u64, level: u32) -> bool {
        if self.alpha * self.grid.threshold(level) > u64::MAX as f64 {
            return false;
        }
        value >= self.alpha_threshold(level)
    }

    /// Highest level whose scaled threshold `value` clears, or `None`.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "the guess saturates into u32, `level -= 1` stops at level 0 (cleared by every value ≥ 1), and the upward climb stops below the first level whose threshold exceeds u64::MAX"
    )]
    fn alpha_level_of(&self, value: u64) -> Option<u32> {
        if value == 0 || !self.alpha_clears(value, 0) {
            return None;
        }
        let guess = ((value as f64 / self.alpha).ln() / self.grid.base().ln()).floor();
        let mut level = if guess < 0.0 { 0 } else { guess as u32 };
        while !self.alpha_clears(value, level) {
            if level == 0 {
                return None;
            }
            level -= 1;
        }
        while self.alpha_clears(value, level + 1) {
            level += 1;
        }
        Some(level)
    }
}

impl Estimate for StreamingAlphaIndex {
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "bucket counts count ingested values, so their sums cannot reach 2⁶⁴; a level is at most a few thousand"
    )]
    fn estimate(&self) -> u64 {
        let mut suffix = 0u64;
        for (level, &b) in self.buckets.iter().enumerate().rev() {
            suffix += b;
            let k = self.grid.int_threshold(level as u32);
            if suffix >= k {
                return k;
            }
        }
        0
    }
}

impl AggregateEstimator for StreamingAlphaIndex {
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`alpha_level_of` returns a u32 level, and the buckets are resized to cover it before the increment; a bucket counts ingested values"
    )]
    fn ingest(&mut self, value: u64) {
        let Some(level) = self.alpha_level_of(value) else {
            return;
        };
        let level = level as usize;
        if level >= self.buckets.len() {
            self.buckets.resize(level + 1, 0);
        }
        self.buckets[level] += 1;
    }
}

impl SpaceUsage for StreamingAlphaIndex {
    fn space_words(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::variants::{alpha_index, g_index};
    use hindex_common::h_index;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn eps(e: f64) -> Epsilon {
        Epsilon::new(e).unwrap()
    }

    fn check_g(values: &[u64], e: f64) {
        let mut est = StreamingGIndex::new(eps(e));
        est.extend_from(values.iter().copied());
        let g = g_index(values);
        let got = est.estimate();
        assert!(got <= g, "over: got {got} g {g} (eps {e}) on {} values", values.len());
        assert!(
            got as f64 >= (1.0 - 2.5 * e) * g as f64,
            "under: got {got} g {g} (eps {e})"
        );
    }

    // A decoded frame may carry any tally. The tallies saturate, a split
    // stream still merges to the serial sketch, and the estimate's
    // candidate loop ends at the saturated threshold.
    #[test]
    fn huge_tallies_from_a_frame_saturate() {
        let mut huge = StreamingGIndex::new(eps(0.5));
        huge.ingest(1);
        huge.counts[0] = u64::MAX;
        huge.sums[0] = u128::MAX;
        huge.n_seen = u64::MAX;
        let (mut serial, _) = StreamingGIndex::read_from(&huge.to_bytes()).unwrap();
        let mut left = serial.clone();
        let mut right = StreamingGIndex::new(eps(0.5));
        for v in [1, 2, 3] {
            serial.ingest(v);
            right.ingest(v);
        }
        left.merge(&right);
        assert_eq!(left.frame_digest(), serial.frame_digest());
        let tallies = (serial.counts[0], serial.sums[0], serial.n_seen);
        assert_eq!(tallies, (u64::MAX, u128::MAX, u64::MAX));
        assert_eq!(serial.estimate(), left.estimate());
    }

    #[test]
    fn g_empty_and_zero() {
        let est = StreamingGIndex::new(eps(0.1));
        assert_eq!(est.estimate(), 0);
        let mut est = StreamingGIndex::new(eps(0.1));
        est.extend_from([0u64, 0]);
        assert_eq!(est.estimate(), 0);
    }

    #[test]
    fn g_blockbuster_case() {
        // One 100-citation paper among zeros: g = 10 exactly.
        let mut values = vec![100u64];
        values.extend(vec![0u64; 50]);
        check_g(&values, 0.1);
        check_g(&values, 0.3);
    }

    #[test]
    fn g_on_shapes() {
        let staircase: Vec<u64> = (1..=500).rev().collect();
        let flat: Vec<u64> = vec![100; 300];
        for e in [0.05, 0.1, 0.2] {
            check_g(&staircase, e);
            check_g(&flat, e);
        }
    }

    #[test]
    fn g_random_streams() {
        let mut rng = StdRng::seed_from_u64(3);
        for case in 0..20 {
            let n = rng.random_range(10..500);
            let values: Vec<u64> = (0..n).map(|_| rng.random_range(0..2000)).collect();
            check_g(&values, 0.15);
            let _ = case;
        }
    }

    #[test]
    fn alpha_one_tracks_h_index() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let n = rng.random_range(5..300);
            let values: Vec<u64> = (0..n).map(|_| rng.random_range(0..1000)).collect();
            let mut est = StreamingAlphaIndex::new(eps(0.2), 1.0);
            est.extend_from(values.iter().copied());
            let h = h_index(&values);
            let got = est.estimate();
            assert!(got <= h, "got {got} h {h}");
            assert!(got as f64 >= (1.0 - 0.2) * h as f64, "got {got} h {h}");
        }
    }

    #[test]
    fn alpha_scaled_thresholds() {
        let mut rng = StdRng::seed_from_u64(5);
        for &alpha in &[0.5, 2.0, 5.0] {
            for _ in 0..10 {
                let n = rng.random_range(5..200);
                let values: Vec<u64> = (0..n).map(|_| rng.random_range(0..1000)).collect();
                let mut est = StreamingAlphaIndex::new(eps(0.2), alpha);
                est.extend_from(values.iter().copied());
                let truth = alpha_index(&values, alpha);
                let got = est.estimate();
                assert!(got <= truth, "alpha {alpha}: got {got} truth {truth}");
                assert!(
                    got as f64 >= (1.0 - 0.25) * truth as f64 - 1.0,
                    "alpha {alpha}: got {got} truth {truth}"
                );
            }
        }
    }

    #[test]
    fn g_space_logarithmic() {
        let mut est = StreamingGIndex::new(eps(0.1));
        for v in [1u64, 1000, 1_000_000] {
            est.ingest(v);
        }
        assert!(est.space_words() < 500);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn alpha_zero_rejected() {
        let _ = StreamingAlphaIndex::new(eps(0.2), 0.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_g_guarantee(values in proptest::collection::vec(0u64..5_000, 0..300)) {
            check_g(&values, 0.2);
        }

        #[test]
        fn prop_g_never_exceeds_n(values in proptest::collection::vec(0u64..100, 0..100)) {
            let mut est = StreamingGIndex::new(eps(0.2));
            est.extend_from(values.iter().copied());
            proptest::prop_assert!(est.estimate() <= values.len() as u64);
        }

        #[test]
        fn prop_alpha_upper_bound(
            values in proptest::collection::vec(0u64..2_000, 0..200),
            alpha_tenths in 2u32..50,
        ) {
            let alpha = f64::from(alpha_tenths) / 10.0;
            let mut est = StreamingAlphaIndex::new(eps(0.2), alpha);
            est.extend_from(values.iter().copied());
            proptest::prop_assert!(est.estimate() <= alpha_index(&values, alpha));
        }
    }
}
