//! Metric primitives: counters, gauges, and a latency histogram.
//!
//! All three are updated with relaxed atomics — observability must
//! never serialize the data path it observes. Relaxed ordering is
//! sound here because every metric is a *monotone aggregate* (or a
//! last-write-wins level) read only at snapshot time; no metric value
//! ever guards a memory access.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub(crate) struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub(crate) fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level (queue depth, buffered items, …) that also
/// remembers its high-water mark.
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub(crate) fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// The current level.
    #[must_use]
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The largest level ever set.
    #[must_use]
    pub(crate) fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`LatencyHistogram`]: one per power of two
/// from 1 ns up to `2^62` ns (~146 years), plus a final catch-all.
pub(crate) const LATENCY_BUCKETS: usize = 64;

/// A fixed-boundary histogram of nanosecond durations.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` ns (bucket 0 counts
/// zeros), so boundaries never need configuring and recording
/// is one `leading_zeros` plus one atomic add. Quantiles are resolved
/// to a bucket upper bound — a ≤2× overestimate, which is the right
/// precision for "did checkpointing get slower?" questions.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Point-in-time summary of a `LatencyHistogram`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Mean duration in nanoseconds (0 when empty).
    pub mean_ns: u64,
    /// Median upper bound in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile upper bound in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile upper bound in nanoseconds.
    pub p99_ns: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`leading_zeros ≤ 64`, and the index is clamped below `LATENCY_BUCKETS`"
    )]
    pub(crate) fn record(&self, nanos: u64) {
        let idx = (64 - nanos.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The bucket upper bound at quantile `q ∈ [0, 1]` (0 when empty).
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "bucket counts sum to the recorded sample count; float-to-int `as` saturates"
    )]
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << i.min(63);
            }
        }
        u64::MAX
    }

    /// Count, mean, and standard quantiles in one pass.
    #[must_use]
    pub(crate) fn summary(&self) -> LatencySummary {
        let count = self.count();
        let mean_ns = self
            .sum
            .load(Ordering::Relaxed)
            .checked_div(count)
            .unwrap_or(0);
        LatencySummary {
            count,
            mean_ns,
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_level_and_peak() {
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.peak(), 7);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(1_000); // bucket ⌈log2 1000⌉ → bound 1024
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 1024);
        assert!(h.quantile(0.99) >= 1_000_000);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.mean_ns >= 1_000 && s.mean_ns <= 200_000);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn extreme_durations_stay_in_range() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) >= 1u64 << 62);
    }
}
