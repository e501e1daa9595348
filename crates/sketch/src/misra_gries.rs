//! Misra–Gries deterministic frequency heavy hitters.
//!
//! The classic `k − 1`-counter summary: every key with frequency
//! `> total/k` survives, and each kept counter underestimates its key's
//! true count by at most `total/k`. Deterministic — the counterpart to
//! the randomized [`crate::CountMin`] in E12(b)'s "frequency heavy
//! hitters are not impact heavy hitters" comparison, showing the gap is
//! not an artifact of sketching noise.

use hindex_common::SpaceUsage;
use std::collections::HashMap;

/// A Misra–Gries summary with at most `k − 1` live counters.
#[derive(Debug, Clone)]
pub struct MisraGries {
    k: usize,
    counters: HashMap<u64, u64>,
    total: u64,
}

impl MisraGries {
    /// Creates a summary detecting every key with frequency
    /// `> total/k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "k must be at least 2");
        Self {
            k,
            counters: HashMap::with_capacity(k),
            total: 0,
        }
    }

    /// Adds `count` occurrences of `key`; counts saturate at `u64::MAX`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`k ≥ 2` is asserted in `new`, and each decrement is at most the smallest live counter (`dec ≤ min_live`, `dec2 ≤ remaining`)"
    )]
    pub fn add(&mut self, key: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.total = self.total.saturating_add(count);
        if let Some(c) = self.counters.get_mut(&key) {
            *c = c.saturating_add(count);
            return;
        }
        if self.counters.len() < self.k - 1 {
            self.counters.insert(key, count);
            return;
        }
        // Decrement-all phase: subtract the largest amount that keeps
        // every counter non-negative and absorbs the incoming count.
        let min_live = self.counters.values().copied().min().unwrap_or(0);
        let dec = count.min(min_live);
        if dec > 0 {
            self.counters.retain(|_, c| {
                *c -= dec;
                *c > 0
            });
        }
        let remaining = count - dec;
        if remaining > 0 {
            if self.counters.len() < self.k - 1 {
                self.counters.insert(key, remaining);
            } else {
                // Still full: classic single-decrement loop, batched.
                let min_live = self.counters.values().copied().min().unwrap_or(0);
                let dec2 = remaining.min(min_live);
                self.counters.retain(|_, c| {
                    *c -= dec2;
                    *c > 0
                });
                if remaining > dec2 && self.counters.len() < self.k - 1 {
                    self.counters.insert(key, remaining - dec2);
                }
            }
        }
    }

    /// Lower-bound estimate of `key`'s count (0 if not retained);
    /// `true − total/k ≤ estimate ≤ true`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn query(&self, key: u64) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// The retained candidates sorted by descending lower-bound count —
    /// a superset of every key with frequency `> total/k`.
    #[must_use]
    pub fn candidates(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.counters.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Total mass added.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

impl SpaceUsage for MisraGries {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated counters fit in usize"
    )]
    fn space_words(&self) -> usize {
        2 * self.counters.len() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_counts_saturate() {
        let mut mg = MisraGries::new(3);
        mg.add(1, u64::MAX);
        mg.add(1, 5);
        mg.add(2, 4);
        assert_eq!(mg.query(1), u64::MAX);
        assert_eq!(mg.total(), u64::MAX);
    }

    #[test]
    fn retains_majority_element() {
        let mut mg = MisraGries::new(2);
        for i in 0..100u64 {
            mg.add(7, 1);
            mg.add(i + 100, 1); // all distinct
        }
        mg.add(7, 1);
        // 7 has strict majority… actually 101 of 201: > total/2.
        assert!(mg.query(7) >= 1, "majority element lost");
    }

    #[test]
    fn guarantees_hold_exhaustively() {
        // Every key with freq > total/k is retained, and estimates are
        // within total/k below truth.
        let k = 10;
        let mut mg = MisraGries::new(k);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let adds: Vec<(u64, u64)> = (0..2000u64)
            .map(|i| (i % 37, if i % 37 < 3 { 20 } else { 1 }))
            .collect();
        for &(key, c) in &adds {
            mg.add(key, c);
            *truth.entry(key).or_default() += c;
        }
        let bar = mg.total() / k as u64;
        for (&key, &t) in &truth {
            let est = mg.query(key);
            assert!(est <= t, "over-estimate for {key}");
            assert!(t - est <= bar, "key {key}: {est} vs {t}, slack {bar}");
            if t > bar {
                assert!(est > 0, "heavy key {key} evicted");
            }
        }
    }

    #[test]
    fn counter_budget_respected() {
        let mut mg = MisraGries::new(5);
        for i in 0..10_000u64 {
            mg.add(i, 1);
        }
        assert!(mg.candidates().len() <= 4);
        assert!(mg.space_words() <= 2 * 4 + 2);
    }

    #[test]
    fn weighted_adds() {
        let mut mg = MisraGries::new(3);
        mg.add(1, 1000);
        mg.add(2, 10);
        mg.add(3, 10);
        mg.add(4, 10);
        // Key 1 dominates: must survive all decrements.
        assert!(mg.query(1) >= 1000 - mg.total() / 3);
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn tiny_k_rejected() {
        let _ = MisraGries::new(1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_mg_invariants(
            adds in proptest::collection::vec((0u64..30, 1u64..50), 1..300),
            k in 2usize..12,
        ) {
            let mut mg = MisraGries::new(k);
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for &(key, c) in &adds {
                mg.add(key, c);
                *truth.entry(key).or_default() += c;
            }
            let bar = mg.total() / k as u64;
            proptest::prop_assert!(mg.candidates().len() < k);
            for (&key, &t) in &truth {
                let est = mg.query(key);
                proptest::prop_assert!(est <= t);
                proptest::prop_assert!(t - est <= bar, "key {} est {} truth {} bar {}", key, est, t, bar);
            }
        }
    }
}
