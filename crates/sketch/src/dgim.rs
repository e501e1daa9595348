//! DGIM approximate counting over sliding windows.
//!
//! Datar–Gionis–Indyk–Motwani (2002): maintain the number of 1s among
//! the last `W` bits of a 0/1 stream to within a `(1±1/(2k))` relative
//! error using `O(k log² W)` bits — buckets of exponentially growing
//! sizes, at most `k + 1` per size, oldest merged as new arrive.
//!
//! This is the substrate for the sliding-window H-index extension
//! (`hindex-core::sliding_window`): §5 of the paper names variants
//! that "take publication dates into account"; restricting the
//! H-index to the most recent `W` publications is the streaming form
//! of that, and each threshold level's counter becomes one [`Dgim`].

use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use hindex_common::SpaceUsage;
use std::collections::VecDeque;

/// A DGIM sliding-window counter for a bit stream.
///
/// ```
/// use hindex_sketch::Dgim;
///
/// let mut d = Dgim::new(100, 5);
/// for _ in 0..150 {
///     d.push(true);
/// }
/// // Only the last 100 bits are in the window.
/// let c = d.count();
/// assert!((90..=110).contains(&c));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dgim {
    window: u64,
    /// Max buckets per size before two merge (`k + 1` allowed, merge at
    /// `k + 2`). Larger k → finer estimates.
    k: usize,
    /// Buckets as `(latest_timestamp, size)`, newest first.
    buckets: VecDeque<(u64, u64)>,
    /// Items consumed so far (timestamps are 1-based).
    time: u64,
}

impl Dgim {
    /// Creates a counter for the last `window` items with relative
    /// error `≤ 1/(2k)` on the count.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `k == 0`.
    #[must_use]
    pub fn new(window: u64, k: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(k > 0, "k must be positive");
        Self {
            window,
            k,
            buckets: VecDeque::new(),
            time: 0,
        }
    }

    /// Starts a counter at an already-elapsed time, so lazily created
    /// counters agree with siblings about expiry (all earlier bits are
    /// implicitly 0, which DGIM represents for free).
    #[must_use]
    pub fn started_at(window: u64, k: usize, time: u64) -> Self {
        let mut d = Self::new(window, k);
        d.time = time;
        d
    }

    /// The window length `W`.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Items consumed so far.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Consumes one bit. A counter whose clock already reads `u64::MAX`
    /// (which only [`Self::started_at`] or a decoded frame can claim)
    /// ignores further bits, so timestamps stay distinct; `k` and bucket
    /// sizes from a frame saturate.
    #[expect(
        clippy::indexing_slicing,
        reason = "`second_oldest` came from enumerating `buckets`"
    )]
    pub fn push(&mut self, bit: bool) {
        let Some(time) = self.time.checked_add(1) else {
            return;
        };
        self.time = time;
        self.expire();
        if !bit {
            return;
        }
        self.buckets.push_front((self.time, 1));
        // Cascade merges: walk sizes from small to large; whenever a
        // size has k + 2 buckets, merge its two oldest into one of the
        // next size.
        let mut size = 1u64;
        loop {
            let count = self.buckets.iter().filter(|&&(_, s)| s == size).count();
            if count < self.k.saturating_add(2) {
                break;
            }
            // Find the two oldest buckets of this size (largest index =
            // oldest since newest are at the front).
            let mut idxs: Vec<usize> = self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &(_, s))| s == size)
                .map(|(i, _)| i)
                .collect();
            // `count ≥ k + 2 ≥ 2` guarantees both pops succeed; the
            // let-else keeps the no-panic contract honest if
            // that ever stops holding.
            let (Some(oldest), Some(second_oldest)) = (idxs.pop(), idxs.pop()) else {
                break;
            };
            // Both came from enumerating `buckets`, untouched since.
            debug_assert!(second_oldest < self.buckets.len());
            // Merged bucket keeps the newer timestamp of the pair.
            let merged_ts = self.buckets[second_oldest].0;
            self.buckets[second_oldest] = (merged_ts, size.saturating_mul(2));
            self.buckets.remove(oldest);
            size = size.saturating_mul(2);
        }
    }

    /// Consumes `n` zero bits at once. A zero only advances time and
    /// expires old buckets, and expiry is monotone in time, so the run
    /// collapses to one time jump plus one expiry sweep —
    /// state-identical to calling [`Self::push`]`(false)` `n` times.
    /// This is what lets batched callers keep per-level counters lazy:
    /// only the levels an item actually hits pay a real push. The clock
    /// saturates at `u64::MAX`.
    pub fn push_zeros(&mut self, n: u64) {
        self.time = self.time.saturating_add(n);
        self.expire();
    }

    fn expire(&mut self) {
        let cutoff = self.time.saturating_sub(self.window);
        while let Some(&(ts, _)) = self.buckets.back() {
            if ts <= cutoff {
                self.buckets.pop_back();
            } else {
                break;
            }
        }
    }

    /// Estimate of the number of 1s among the last `window` bits: full
    /// sizes of all but the oldest bucket, plus half the oldest,
    /// saturating (a decoded frame may carry any bucket size).
    #[must_use]
    pub fn count(&self) -> u64 {
        let cutoff = self.time.saturating_sub(self.window);
        let live: Vec<u64> = self
            .buckets
            .iter()
            .filter(|&&(ts, _)| ts > cutoff)
            .map(|&(_, s)| s)
            .collect();
        match live.split_last() {
            None => 0,
            Some((&oldest, rest)) => rest
                .iter()
                .fold(oldest.div_ceil(2), |sum, &s| sum.saturating_add(s)),
        }
    }
}

/// Payload: window, `k`, elapsed time, then the buckets newest-first
/// as `(timestamp, size)` pairs. Decode re-validates the constructor
/// invariants plus the structural ones the update path maintains:
/// positive bucket sizes, timestamps no later than `time`, and
/// strictly decreasing timestamps from front to back.
impl Snapshot for Dgim {
    const TAG: u8 = 11;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_u64(self.window);
        w.put_usize(self.k);
        w.put_u64(self.time);
        w.put_usize(self.buckets.len());
        for &(ts, size) in &self.buckets {
            w.put_u64(ts);
            w.put_u64(size);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let window = r.get_u64()?;
        if window == 0 {
            return Err(SnapshotError::Invalid("window must be positive"));
        }
        let k = r.get_usize()?;
        if k == 0 {
            return Err(SnapshotError::Invalid("k must be positive"));
        }
        let time = r.get_u64()?;
        let len = r.get_count(16)?;
        let mut buckets = VecDeque::with_capacity(len);
        let mut prev_ts = None;
        for _ in 0..len {
            let ts = r.get_u64()?;
            let size = r.get_u64()?;
            if size == 0 {
                return Err(SnapshotError::Invalid("bucket size must be positive"));
            }
            if ts > time {
                return Err(SnapshotError::Invalid("bucket timestamp is in the future"));
            }
            if prev_ts.is_some_and(|p| p <= ts) {
                return Err(SnapshotError::Invalid(
                    "buckets must be newest-first with distinct timestamps",
                ));
            }
            prev_ts = Some(ts);
            buckets.push_back((ts, size));
        }
        Ok(Self { window, k, buckets, time })
    }
}

impl SpaceUsage for Dgim {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated buckets fit in usize"
    )]
    fn space_words(&self) -> usize {
        2 * self.buckets.len() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque as Window;

    #[test]
    fn a_clock_at_the_end_of_time_stops_instead_of_wrapping() {
        let mut d = Dgim::started_at(10, 2, u64::MAX - 1);
        d.push(true);
        d.push(true);
        d.push_zeros(5);
        assert_eq!(d.time(), u64::MAX);
        assert_eq!(d.count(), 1);
        assert_eq!(Dgim::read_from(&d.to_bytes()).map(|(back, _)| back), Ok(d));
    }

    // A decoded frame may carry any `k` and bucket sizes: the cascade
    // bound, merged sizes and the count saturate.
    #[test]
    fn huge_frame_values_saturate() {
        // Two buckets of every size 2⁰ … 2⁶³, newest (smallest) first:
        // one more bit cascades merges up to a size of 2⁶⁴.
        let buckets = (0..128u64).map(|i| (200 - i, 1 << (i / 2))).collect();
        let huge = Dgim {
            window: u64::MAX,
            k: 1,
            buckets,
            time: 200,
        };
        let (mut d, _) = Dgim::read_from(&huge.to_bytes()).unwrap();
        assert_eq!(d.count(), u64::MAX);
        d.push(true);
        assert_eq!(d.buckets.back().map(|&(_, size)| size), Some(u64::MAX));
        assert_eq!(d.count(), u64::MAX);
        assert_eq!(Dgim::read_from(&d.to_bytes()).map(|(back, _)| back), Ok(d));
        let mut wide = Dgim::started_at(10, usize::MAX, 0);
        wide.push(true);
        assert_eq!(wide.count(), 1);
    }

    #[test]
    fn push_zeros_is_identical_to_repeated_false_pushes() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut batched = Dgim::new(128, 3);
        let mut serial = Dgim::new(128, 3);
        // Interleave true pushes with zero runs of every interesting
        // length: 0, 1, below / at / beyond the window.
        for run in [0u64, 1, 2, 7, 64, 127, 128, 129, 300] {
            for _ in 0..rng.random_range(1..10) {
                batched.push(true);
                serial.push(true);
            }
            batched.push_zeros(run);
            for _ in 0..run {
                serial.push(false);
            }
            assert_eq!(batched, serial, "diverged after zero run {run}");
        }
        assert_eq!(batched.count(), serial.count());
        assert_eq!(batched.time(), serial.time());
    }

    /// Reference: exact sliding-window count.
    struct Exact {
        window: usize,
        bits: Window<bool>,
    }

    impl Exact {
        fn new(window: usize) -> Self {
            Self { window, bits: Window::new() }
        }
        fn push(&mut self, bit: bool) {
            self.bits.push_back(bit);
            if self.bits.len() > self.window {
                self.bits.pop_front();
            }
        }
        fn count(&self) -> u64 {
            self.bits.iter().filter(|&&b| b).count() as u64
        }
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(Dgim::new(10, 2).count(), 0);
    }

    #[test]
    fn small_streams_exact() {
        // k = 8 permits nine size-1 buckets: with only seven ones no
        // merge ever fires and the count is exact.
        let mut d = Dgim::new(100, 8);
        let mut e = Exact::new(100);
        for i in 0..20 {
            let bit = i % 3 == 0;
            d.push(bit);
            e.push(bit);
        }
        assert_eq!(d.count(), e.count());
    }

    #[test]
    fn all_ones_relative_error() {
        let w = 1000u64;
        for k in [2usize, 4, 8, 16] {
            let mut d = Dgim::new(w, k);
            for _ in 0..5000 {
                d.push(true);
            }
            let err = (d.count() as f64 - w as f64).abs() / w as f64;
            let bound = 0.5 / k as f64 + 0.01;
            assert!(err <= bound, "k={k}: err {err} > {bound}");
        }
    }

    #[test]
    fn expiry_empties_after_quiet_period() {
        let mut d = Dgim::new(50, 3);
        for _ in 0..100 {
            d.push(true);
        }
        for _ in 0..50 {
            d.push(false);
        }
        assert_eq!(d.count(), 0, "all ones expired");
    }

    #[test]
    fn random_streams_tracked_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        for &density in &[0.1, 0.5, 0.9] {
            let k = 8;
            let w = 500u64;
            let mut d = Dgim::new(w, k);
            let mut e = Exact::new(w as usize);
            let mut worst = 0.0f64;
            for _ in 0..5000 {
                let bit = rng.random::<f64>() < density;
                d.push(bit);
                e.push(bit);
                let truth = e.count();
                if truth > 20 {
                    let err = (d.count() as f64 - truth as f64).abs() / truth as f64;
                    worst = worst.max(err);
                }
            }
            let bound = 0.5 / k as f64 + 0.05;
            assert!(worst <= bound, "density {density}: worst {worst}");
        }
    }

    #[test]
    fn started_at_agrees_with_fresh_plus_zeros() {
        let mut a = Dgim::new(100, 4);
        for _ in 0..500 {
            a.push(false);
        }
        let mut b = Dgim::started_at(100, 4, 500);
        for _ in 0..50 {
            a.push(true);
            b.push(true);
        }
        assert_eq!(a.count(), b.count());
    }

    #[test]
    fn space_logarithmic_in_window() {
        use hindex_common::SpaceUsage;
        let mut d = Dgim::new(1 << 20, 4);
        for _ in 0..(1 << 20) {
            d.push(true);
        }
        // buckets ≈ (k+1)·log2(W/k): comfortably under 200 words.
        assert!(d.space_words() < 300, "{} words", d.space_words());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = Dgim::new(0, 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn prop_error_within_dgim_bound(
            bits in proptest::collection::vec(proptest::bool::ANY, 1..2000),
            w in 10u64..500,
        ) {
            let k = 6;
            let mut d = Dgim::new(w, k);
            let mut e = Exact::new(w as usize);
            for &bit in &bits {
                d.push(bit);
                e.push(bit);
            }
            let truth = e.count() as f64;
            let got = d.count() as f64;
            // DGIM bound: only the oldest bucket is uncertain, by half
            // its size; sizes are powers of two, so the absolute error
            // is ≤ max(1, truth/(2k)) + 1.
            let bound = (truth / (2.0 * k as f64)).max(1.0) + 1.0;
            proptest::prop_assert!((got - truth).abs() <= bound, "got {} truth {}", got, truth);
        }
    }
}
