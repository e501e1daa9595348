//! Exact turnstile baseline: citations with retractions.

use hindex_common::SpaceUsage;
use std::collections::{BTreeMap, HashMap};

/// Exact H-index under turnstile updates (`V[p] += δ`, δ possibly
/// negative), computed as `h*(max(V, 0))`.
///
/// Unlike [`crate::CashTable`], the H-index can *decrease* here, so no
/// monotone shortcut applies; the estimate walks the positive-count
/// histogram from the top (`O(distinct positive values)` per query).
#[derive(Debug, Clone, Default)]
pub struct TurnstileTable {
    counts: HashMap<u64, i64>,
    /// Histogram over positive counts only.
    histogram: BTreeMap<u64, u64>,
}

impl TurnstileTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `V[index] += delta`.
    pub fn ingest(&mut self, index: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        let entry = self.counts.entry(index).or_insert(0);
        let old = *entry;
        *entry += delta;
        let new = *entry;
        if *entry == 0 {
            self.counts.remove(&index);
        }
        if old > 0 {
            // Same lockstep argument as `CashTable::ingest`: degrade
            // instead of panicking (lint L9), with the invariant layer
            // asserting sync in debug runs.
            hindex_common::debug_invariant!(
                self.histogram.contains_key(&(old as u64)),
                "histogram out of sync: no bucket for count {old}"
            );
            if let Some(b) = self.histogram.get_mut(&(old as u64)) {
                *b -= 1;
                if *b == 0 {
                    self.histogram.remove(&(old as u64));
                }
            }
        }
        if new > 0 {
            *self.histogram.entry(new as u64).or_insert(0) += 1;
        }
    }

    /// The exact current count of a paper (may be negative).
    #[must_use]
    pub fn count(&self, paper: u64) -> i64 {
        self.counts.get(&paper).copied().unwrap_or(0)
    }

    /// Number of non-zero coordinates (the ℓ₀ norm).
    #[must_use]
    pub fn l0(&self) -> u64 {
        self.counts.len() as u64
    }

    /// Exact H-index of the clamped vector `max(V, 0)`.
    #[must_use]
    pub fn h_index(&self) -> u64 {
        let mut at_least = 0u64;
        let mut best = 0u64;
        for (&value, &mult) in self.histogram.iter().rev() {
            at_least += mult;
            // h candidates in (prev_value, value]: the best feasible is
            // min(value, at_least).
            best = best.max(value.min(at_least));
        }
        best
    }
}

impl SpaceUsage for TurnstileTable {
    fn space_words(&self) -> usize {
        2 * self.counts.len() + 2 * self.histogram.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::h_index;

    fn oracle(counts: &HashMap<u64, i64>) -> u64 {
        let values: Vec<u64> = counts.values().map(|&v| v.max(0) as u64).collect();
        h_index(&values)
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(TurnstileTable::new().h_index(), 0);
    }

    #[test]
    fn insert_only_matches_offline() {
        let mut t = TurnstileTable::new();
        for (i, c) in [(0u64, 10i64), (1, 5), (2, 3), (3, 3), (4, 1)] {
            t.ingest(i, c);
        }
        assert_eq!(t.h_index(), 3);
    }

    #[test]
    fn retraction_decreases_h() {
        let mut t = TurnstileTable::new();
        for p in 0..10u64 {
            t.ingest(p, 10);
        }
        assert_eq!(t.h_index(), 10);
        for p in 0..6u64 {
            t.ingest(p, -10);
        }
        assert_eq!(t.h_index(), 4);
    }

    #[test]
    fn negative_counts_clamped() {
        let mut t = TurnstileTable::new();
        t.ingest(1, 5);
        t.ingest(1, -8); // net −3
        t.ingest(2, 2);
        assert_eq!(t.count(1), -3);
        assert_eq!(t.h_index(), 1); // only paper 2 counts
        assert_eq!(t.l0(), 2); // both are non-zero coordinates
    }

    #[test]
    fn exact_zero_coordinates_leave_table() {
        let mut t = TurnstileTable::new();
        t.ingest(7, 4);
        t.ingest(7, -4);
        assert_eq!(t.l0(), 0);
        assert_eq!(t.h_index(), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_offline_oracle(
            updates in proptest::collection::vec((0u64..40, -20i64..20), 0..400),
        ) {
            let mut t = TurnstileTable::new();
            let mut truth: HashMap<u64, i64> = HashMap::new();
            for &(i, d) in &updates {
                t.ingest(i, d);
                let e = truth.entry(i).or_insert(0);
                *e += d;
                if *e == 0 {
                    truth.remove(&i);
                }
            }
            proptest::prop_assert_eq!(t.h_index(), oracle(&truth));
            proptest::prop_assert_eq!(t.l0(), truth.len() as u64);
        }

        #[test]
        fn prop_histogram_consistency(
            updates in proptest::collection::vec((0u64..20, -10i64..10), 0..200),
        ) {
            let mut t = TurnstileTable::new();
            for &(i, d) in &updates {
                t.ingest(i, d);
            }
            // Histogram multiplicities must sum to the number of
            // positive coordinates.
            let hist_total: u64 = t.histogram.values().sum();
            let positive = t.counts.values().filter(|&&v| v > 0).count() as u64;
            proptest::prop_assert_eq!(hist_total, positive);
        }
    }
}
