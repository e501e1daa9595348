//! Exact cash-register baseline.

use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use hindex_common::{CashRegisterEstimator, Estimate, Mergeable, SpaceUsage};
use std::collections::HashMap;

/// Exact cash-register H-index via a full paper → count table.
///
/// Alongside the table it maintains the current exact H-index
/// *incrementally*: `h` only ever grows under cash-register updates,
/// and grows by at most one per update, so it suffices to track
/// `count_at_least_h_plus_1 = #{papers with count ≥ h+1}` and promote
/// when that reaches `h + 1`. Each update adjusts the tally in `O(1)`
/// amortized (promotion rescans a bucket histogram).
#[derive(Debug, Clone, Default)]
pub struct CashTable {
    counts: HashMap<u64, u64>,
    /// Histogram bucket: value → number of papers with exactly that
    /// count. Kept only for counts ≤ current h + 1 is not enough for
    /// promotions, so the full (sparse) histogram is maintained.
    histogram: HashMap<u64, u64>,
    h: u64,
    /// Papers with count ≥ h + 1.
    above: u64,
}

impl CashTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact citation count of a paper.
    #[must_use]
    pub fn count(&self, paper: u64) -> u64 {
        self.counts.get(&paper).copied().unwrap_or(0)
    }

    /// Number of distinct papers with at least one citation.
    #[must_use]
    pub fn distinct(&self) -> u64 {
        self.counts.len() as u64
    }
}

impl Estimate for CashTable {
    fn estimate(&self) -> u64 {
        self.h
    }
}

impl CashRegisterEstimator for CashTable {
    fn ingest(&mut self, index: u64, delta: u64) {
        if delta == 0 {
            return;
        }
        let entry = self.counts.entry(index).or_insert(0);
        let old = *entry;
        // Saturate, never wrap: a count at `u64::MAX` already exceeds
        // every possible h, and for non-negative deltas saturating sums
        // are associative, so shard splits and merges stay exact.
        let new = old.saturating_add(delta);
        if new == old {
            return;
        }
        *entry = new;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "a histogram bucket holds a positive multiplicity; it is removed at 0"
        )]
        if old > 0 {
            // `counts` and `histogram` are updated in lockstep, so the
            // old bucket must exist; a desync would only skew the
            // incremental h (estimate stays a lower bound), so degrade
            // rather than panic and let the invariant layer
            // catch it in debug runs.
            hindex_common::debug_invariant!(
                self.histogram.contains_key(&old),
                "histogram out of sync: no bucket for count {old}"
            );
            if let Some(bucket) = self.histogram.get_mut(&old) {
                *bucket -= 1;
                if *bucket == 0 {
                    self.histogram.remove(&old);
                }
            }
        }
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "bucket multiplicities, `above` and `h` are at most the number of papers in the table"
        )]
        {
            *self.histogram.entry(new).or_insert(0) += 1;
            // Crossing the h+1 bar?
            if old <= self.h && new > self.h {
                self.above += 1;
                if self.above > self.h {
                    // h increases by exactly one; recompute `above` for
                    // the new bar h+2 from the histogram tail.
                    self.h += 1;
                    self.above = self
                        .histogram
                        .iter()
                        .filter(|&(&v, _)| v > self.h)
                        .map(|(_, &c)| c)
                        .sum();
                }
            }
        }
    }
}

impl CashTable {
    /// The derived `histogram`, `h` and `above` agree with a
    /// recomputation from `counts`. The frame (and so `frame_digest`)
    /// carries only `counts`, so this is what catches a desync of the
    /// incremental tallies. Only compiled under `debug_invariants`.
    #[cfg(feature = "debug_invariants")]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a recomputed bucket counts entries of `counts`, which is in memory"
    )]
    fn assert_lockstep(&self) {
        let mut histogram: HashMap<u64, u64> = HashMap::new();
        for &count in self.counts.values() {
            *histogram.entry(count).or_insert(0) += 1;
        }
        let values: Vec<u64> = self.counts.values().copied().collect();
        let h = hindex_common::h_index(&values);
        let above = values.iter().filter(|&&v| v > h).count() as u64;
        assert!(
            self.histogram == histogram,
            "histogram out of lockstep with counts"
        );
        assert!(
            (self.h, self.above) == (h, above),
            "h/above out of lockstep with counts: ({}, {}), want ({h}, {above})",
            self.h,
            self.above
        );
    }
}

/// Merging the exact baseline replays `other`'s per-paper totals as
/// cash-register updates: the table is deterministic and
/// order-insensitive, so the result is exactly the table of the
/// concatenated streams. No shared randomness is required.
impl Mergeable for CashTable {
    fn merge(&mut self, other: &Self) {
        for (&paper, &count) in &other.counts {
            self.ingest(paper, count);
        }
        #[cfg(feature = "debug_invariants")]
        self.assert_lockstep();
    }
}

/// Payload: the per-paper totals as `(paper, count)` pairs, sorted by
/// paper id so equal tables encode identically regardless of hash-map
/// iteration order. The histogram, the incremental `h`, and the
/// `above` tally are *derived* state: decode rebuilds them by
/// replaying each total as one cash-register update, which keeps the
/// four fields in lockstep by construction instead of trusting four
/// separately serialised copies to agree.
impl Snapshot for CashTable {
    const TAG: u8 = 20;

    fn write_payload(&self, w: &mut Writer<'_>) {
        let mut entries: Vec<(u64, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        entries.sort_unstable();
        w.put_usize(entries.len());
        for (paper, count) in entries {
            w.put_u64(paper);
            w.put_u64(count);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let len = r.get_count(16)?;
        let mut table = Self::new();
        let mut prev: Option<u64> = None;
        for _ in 0..len {
            let paper = r.get_u64()?;
            let count = r.get_u64()?;
            if count == 0 {
                return Err(SnapshotError::Invalid("paper with zero citations stored"));
            }
            if prev.is_some_and(|p| p >= paper) {
                return Err(SnapshotError::Invalid("papers must be strictly increasing"));
            }
            prev = Some(paper);
            table.ingest(paper, count);
        }
        #[cfg(feature = "debug_invariants")]
        table.assert_lockstep();
        Ok(table)
    }
}

impl SpaceUsage for CashTable {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated entries fit in usize"
    )]
    fn space_words(&self) -> usize {
        2 * self.counts.len() + 2 * self.histogram.len() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::h_index;

    fn replay(updates: &[(u64, u64)]) -> (CashTable, u64) {
        let mut t = CashTable::new();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(i, d) in updates {
            t.ingest(i, d);
            *truth.entry(i).or_default() += d;
        }
        let values: Vec<u64> = truth.values().copied().collect();
        (t, h_index(&values))
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(CashTable::new().estimate(), 0);
    }

    #[test]
    fn unit_updates_single_paper() {
        let mut t = CashTable::new();
        for _ in 0..100 {
            t.ingest(7, 1);
        }
        assert_eq!(t.estimate(), 1);
        assert_eq!(t.count(7), 100);
        assert_eq!(t.distinct(), 1);
    }

    #[test]
    fn staircase_updates() {
        // Papers 0..10 receive i+1 citations each → h = 5... values are
        // 1..=10, h = 5.
        let updates: Vec<(u64, u64)> = (0..10u64).map(|i| (i, i + 1)).collect();
        let (t, truth) = replay(&updates);
        assert_eq!(truth, 5);
        assert_eq!(t.estimate(), 5);
    }

    #[test]
    fn incremental_promotion_matches_truth_prefixwise() {
        let mut t = CashTable::new();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        // Interleaved unit updates over 20 papers.
        for step in 0..2000u64 {
            let paper = (step * 7) % 20;
            t.ingest(paper, 1);
            *truth.entry(paper).or_default() += 1;
            let values: Vec<u64> = truth.values().copied().collect();
            assert_eq!(t.estimate(), h_index(&values), "step {step}");
        }
    }

    #[test]
    fn zero_delta_ignored() {
        let mut t = CashTable::new();
        t.ingest(3, 0);
        assert_eq!(t.distinct(), 0);
        assert_eq!(t.estimate(), 0);
    }

    #[test]
    fn space_tracks_distinct_papers() {
        let mut t = CashTable::new();
        for i in 0..100u64 {
            t.ingest(i, 2);
        }
        assert!(t.space_words() >= 200);
    }

    #[test]
    fn merge_equals_concatenation() {
        let updates: Vec<(u64, u64)> = (0..200u64).map(|k| (k % 23, 1 + k % 4)).collect();
        let (whole, truth) = replay(&updates);
        let mut a = CashTable::new();
        let mut b = CashTable::new();
        for (n, &(i, d)) in updates.iter().enumerate() {
            if n % 2 == 0 {
                a.ingest(i, d);
            } else {
                b.ingest(i, d);
            }
        }
        a.merge(&b);
        assert_eq!(a.estimate(), truth);
        assert_eq!(a.estimate(), whole.estimate());
        assert_eq!(a.distinct(), whole.distinct());
    }

    #[test]
    fn counts_saturate_so_splits_merge_exactly() {
        let table = |updates: &[(u64, u64)]| {
            let mut t = CashTable::new();
            for &(i, d) in updates {
                t.ingest(i, d);
            }
            t
        };
        let big = i64::MAX.unsigned_abs();
        let serial = table(&[(1, big), (1, big), (1, 2), (2, 5)]);
        // The same stream split over two shards, then merged.
        let mut left = table(&[(1, big), (2, 5)]);
        left.merge(&table(&[(1, big), (1, 2)]));
        assert_eq!(serial.count(1), u64::MAX);
        assert_eq!(serial.estimate(), 2);
        assert_eq!(left.estimate(), 2);
        assert_eq!(left.frame_digest(), serial.frame_digest());
        let (back, _) = CashTable::read_from(&serial.to_bytes()).unwrap();
        assert_eq!(back.frame_digest(), serial.frame_digest());
        assert_eq!(back.estimate(), 2);
    }

    #[cfg(feature = "debug_invariants")]
    #[test]
    #[should_panic(expected = "out of lockstep")]
    fn desynced_table_trips_the_lockstep_check() {
        let mut t = CashTable::new();
        t.ingest(1, 3);
        t.h += 1;
        t.merge(&CashTable::new());
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_offline(
            updates in proptest::collection::vec((0u64..50, 1u64..20), 0..300),
        ) {
            let (t, truth) = replay(&updates);
            proptest::prop_assert_eq!(t.estimate(), truth);
        }

        #[test]
        fn prop_prefix_monotone(
            updates in proptest::collection::vec((0u64..30, 1u64..5), 1..200),
        ) {
            let mut t = CashTable::new();
            let mut prev = 0;
            for &(i, d) in &updates {
                t.ingest(i, d);
                let h = t.estimate();
                proptest::prop_assert!(h >= prev, "h decreased");
                prev = h;
            }
        }
    }
}
