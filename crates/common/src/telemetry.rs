//! Estimator-side telemetry records.
//!
//! These are *operational* counters, not sketch state: they are
//! excluded from snapshots, digests, and estimates, and exist so the
//! observability layer (`hindex-obs`) can report how far a batch path
//! coalesces its input. They live in `hindex-common` because both the
//! estimators (which accumulate them) and the engine/obs crates (which
//! surface them) need the type.

/// Counters accumulated by a sampler-bank estimator's batch ingest
/// (the Algorithm 6 ℓ₀-sampler bank in `hindex-core`).
///
/// Both live fields are totals since construction; their ratio
/// `raw_updates / tile_items` is the coalescing factor, the number of
/// raw updates each sampler touch stands for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankCounters {
    /// Raw updates offered to `ingest_batch` before coalescing.
    pub raw_updates: u64,
    /// Coalesced items fed to the bank: one per distinct index per
    /// batch (more only for a total that overflows one `i64` step).
    pub tile_items: u64,
    /// Unused: no writer, always 0. Kept only because the benchmark
    /// harness still reads it.
    pub tile_capacity: u64,
    /// Unused: no writer, always 0. Kept only because the benchmark
    /// harness still reads it.
    pub level_touches: u64,
    /// Unused: no writer, always 0. Kept only because the benchmark
    /// harness still reads it.
    pub pow_evals: u64,
    /// Unused: no writer, always 0. Kept only because the benchmark
    /// harness still reads it.
    pub pow_reused: u64,
}

impl BankCounters {
    /// Field-wise accumulation of the live counters — used by
    /// [`crate::Mergeable`] implementations so shard-merged estimators
    /// report bank totals across the whole engine run.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the counters count ingested updates, which cannot reach 2⁶⁴"
    )]
    pub fn absorb(&mut self, other: &Self) {
        self.raw_updates += other.raw_updates;
        self.tile_items += other.tile_items;
    }

    /// Whether the bank's batch ingest has run at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fieldwise() {
        let mut a = BankCounters { raw_updates: 40, tile_items: 10, ..BankCounters::default() };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.raw_updates, 80);
        assert_eq!(a.tile_items, 20);
        assert!(!a.is_empty());
        assert!(BankCounters::default().is_empty());
    }
}
