//! Windowed rates and batch-size statistics, self-hosted on the
//! workspace's own streaming sketches.
//!
//! The paper's algorithms summarise a stream in sublinear space; the
//! engine's own telemetry is just another stream. So instead of
//! importing a metrics library, the meters here *are* the repo's
//! algorithms pointed at the system:
//!
//! * `RateMeter` — a DGIM sliding-window bit counter
//!   ([`hindex_sketch::Dgim`], Datar–Gionis–Indyk–Motwani) over the
//!   flush stream: each flush pushes one bit ("was the batch full?"),
//!   and the meter reports the fraction of full batches over the last
//!   `W` flushes — pipeline saturation with `O(k log W)` space.
//! * `BatchStats` — Algorithm 1's exponential histogram over batch
//!   sizes. Its estimate is the **H-index of the batch-size stream**:
//!   the largest `b` such that at least `b` flushed batches held at
//!   least `b` items. Small-batch floods and healthy steady state are
//!   immediately distinguishable from this one number, in
//!   `O(ε⁻¹ log max_batch)` words.

use hindex_common::{AggregateEstimator, Epsilon, Estimate, SpaceUsage};
use hindex_core::ExponentialHistogram;
use hindex_sketch::Dgim;

/// Fraction of recent flushes that shipped a full batch, over a DGIM
/// sliding window of the last `window` flushes.
#[derive(Debug, Clone)]
pub(crate) struct RateMeter {
    bits: Dgim,
}

impl RateMeter {
    /// A meter over the last `window` observations (`window ≥ 1`;
    /// zero is clamped to one). `k` buckets per size give relative
    /// counting error `≤ 1/(2k)`.
    #[must_use]
    pub(crate) fn new(window: u64, k: usize) -> Self {
        Self {
            bits: Dgim::new(window.max(1), k.max(1)),
        }
    }

    /// Records one observation (e.g. "this flush shipped a full
    /// batch").
    pub(crate) fn record(&mut self, hit: bool) {
        self.bits.push(hit);
    }

    /// Approximate hit fraction over the window, in `[0, 1]`.
    #[must_use]
    pub(crate) fn rate(&self) -> f64 {
        let seen = self.bits.time().min(self.bits.window());
        if seen == 0 {
            return 0.0;
        }
        (self.bits.count() as f64 / seen as f64).min(1.0)
    }
}

impl SpaceUsage for RateMeter {
    fn space_words(&self) -> usize {
        self.bits.space_words()
    }
}

/// Batch-size distribution summarised by Algorithm 1.
#[derive(Debug, Clone)]
pub(crate) struct BatchStats {
    /// `None` only if the hard-coded ε were invalid, which is
    /// statically impossible; kept total instead of panicking (L9).
    hist: Option<ExponentialHistogram>,
    max: u64,
    sum: u64,
    count: u64,
}

/// Accuracy of the batch-size histogram: coarse is fine for telemetry.
const BATCH_EPSILON: f64 = 0.1;

impl BatchStats {
    /// Empty statistics.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self {
            hist: Epsilon::new(BATCH_EPSILON).ok().map(ExponentialHistogram::new),
            max: 0,
            sum: 0,
            count: 0,
        }
    }

    /// Records one flushed batch of `len` items.
    pub(crate) fn record(&mut self, len: u64) {
        if let Some(h) = &mut self.hist {
            h.ingest(len);
        }
        self.max = self.max.max(len);
        self.sum += len;
        self.count += 1;
    }

    /// The H-index of the batch-size stream (see module docs).
    #[must_use]
    pub(crate) fn h_index(&self) -> u64 {
        self.hist.as_ref().map_or(0, Estimate::estimate)
    }

    /// Largest batch seen.
    #[must_use]
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Mean batch length (0 when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

impl Default for BatchStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SpaceUsage for BatchStats {
    fn space_words(&self) -> usize {
        self.hist.as_ref().map_or(0, SpaceUsage::space_words) + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_meter_tracks_recent_fraction() {
        let mut m = RateMeter::new(100, 4);
        for _ in 0..200 {
            m.record(true);
        }
        assert!(m.rate() > 0.8, "rate {}", m.rate());
        for _ in 0..200 {
            m.record(false);
        }
        assert!(m.rate() < 0.2, "rate {}", m.rate());
        assert_eq!(m.bits.time(), 400);
    }

    #[test]
    fn rate_meter_empty_is_zero() {
        let m = RateMeter::new(64, 2);
        assert_eq!(m.rate(), 0.0);
        assert!(m.space_words() > 0);
    }

    #[test]
    fn rate_meter_partial_window_uses_elapsed_time() {
        let mut m = RateMeter::new(1_000, 4);
        for _ in 0..10 {
            m.record(true);
        }
        // 10 hits over 10 observations, not over the 1000-slot window.
        assert!(m.rate() > 0.8, "rate {}", m.rate());
    }

    #[test]
    fn batch_stats_h_index_matches_definition() {
        let mut b = BatchStats::new();
        // 60 batches of 100 items: h-index of the size stream is 60.
        for _ in 0..60 {
            b.record(100);
        }
        let h = b.h_index();
        assert!((54..=60).contains(&h), "h {h}");
        assert_eq!(b.max(), 100);
        assert_eq!(b.mean(), 100);
        assert_eq!(b.count, 60);
    }

    #[test]
    fn batch_stats_empty() {
        let b = BatchStats::new();
        assert_eq!(b.h_index(), 0);
        assert_eq!(b.mean(), 0);
    }

    #[test]
    fn batch_stats_distinguishes_small_batch_flood() {
        let mut flood = BatchStats::new();
        for _ in 0..10_000 {
            flood.record(1);
        }
        let mut healthy = BatchStats::new();
        for _ in 0..100 {
            healthy.record(1_024);
        }
        assert!(flood.h_index() <= 1);
        assert!(healthy.h_index() >= 90);
    }
}
