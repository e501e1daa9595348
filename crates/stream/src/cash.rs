//! Cash-register streams: unaggregated citation updates.
//!
//! §2.3: "each tuple corresponds to the i-th update to the number of
//! citations of paper p, such that `c_p = Σᵢ c_pⁱ`". [`Unaggregator`]
//! turns a finished corpus into such an update stream, splitting each
//! paper's citation total into unit or batched updates and interleaving
//! them, so the cash-register algorithms see citations trickle in the
//! way they would arrive live.

use crate::corpus::Corpus;
use crate::model::{AuthorId, PaperId};
use rand::seq::SliceRandom;
use rand::Rng;

/// One cash-register update: paper `paper` (by authors `authors`)
/// gained `delta` citations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CashUpdate {
    /// The cited paper.
    pub paper: PaperId,
    /// The paper's authors (carried so heavy-hitter algorithms can
    /// attribute updates).
    pub authors: Vec<AuthorId>,
    /// Citations gained (`≥ 1`).
    pub delta: u64,
}

/// Splits a corpus into a cash-register update stream.
#[derive(Debug, Clone, Copy)]
pub struct Unaggregator {
    /// Maximum citations delivered per update; each paper's total is
    /// split into chunks of random size in `[1, max_batch]`.
    pub max_batch: u64,
    /// Shuffle the final update stream (`true` interleaves papers the
    /// way live feedback would; `false` keeps each paper's updates
    /// contiguous).
    pub shuffle: bool,
}

impl Default for Unaggregator {
    fn default() -> Self {
        Self { max_batch: 1, shuffle: true }
    }
}

impl Unaggregator {
    /// Materializes the update stream.
    ///
    /// Papers with zero citations produce no updates (nobody responded).
    /// The sum of deltas per paper equals its aggregate count exactly.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`delta ≤ remaining` by the draw range"
    )]
    pub fn stream<R: Rng + ?Sized>(&self, corpus: &Corpus, rng: &mut R) -> Vec<CashUpdate> {
        assert!(self.max_batch >= 1, "batch size must be positive");
        let mut updates = Vec::new();
        for paper in corpus.papers() {
            let mut remaining = paper.citations;
            while remaining > 0 {
                let delta = rng.random_range(1..=self.max_batch.min(remaining));
                updates.push(CashUpdate {
                    paper: paper.id,
                    authors: paper.authors.clone(),
                    delta,
                });
                remaining -= delta;
            }
        }
        if self.shuffle {
            updates.shuffle(rng);
        }
        updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Paper;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn corpus() -> Corpus {
        Corpus::from_papers(vec![
            Paper::solo(0, 1, 5),
            Paper::solo(1, 1, 0),
            Paper::with_authors(2, &[1, 2], 3),
        ])
    }

    #[test]
    fn unit_updates_sum_to_totals() {
        let mut rng = StdRng::seed_from_u64(0);
        let updates = Unaggregator::default().stream(&corpus(), &mut rng);
        assert_eq!(updates.len(), 8); // 5 + 0 + 3 unit updates
        let mut sums: HashMap<PaperId, u64> = HashMap::new();
        for u in &updates {
            assert_eq!(u.delta, 1);
            *sums.entry(u.paper).or_default() += u.delta;
        }
        assert_eq!(sums[&PaperId(0)], 5);
        assert_eq!(sums.get(&PaperId(1)), None);
        assert_eq!(sums[&PaperId(2)], 3);
    }

    #[test]
    fn batched_updates_sum_to_totals() {
        let mut rng = StdRng::seed_from_u64(1);
        let ua = Unaggregator { max_batch: 4, shuffle: false };
        let updates = ua.stream(&corpus(), &mut rng);
        let mut sums: HashMap<PaperId, u64> = HashMap::new();
        for u in &updates {
            assert!((1..=4).contains(&u.delta));
            *sums.entry(u.paper).or_default() += u.delta;
        }
        assert_eq!(sums[&PaperId(0)], 5);
        assert_eq!(sums[&PaperId(2)], 3);
    }

    #[test]
    fn authors_carried_through() {
        let mut rng = StdRng::seed_from_u64(2);
        let updates = Unaggregator { max_batch: 10, shuffle: false }.stream(&corpus(), &mut rng);
        let multi = updates.iter().find(|u| u.paper == PaperId(2)).unwrap();
        assert_eq!(multi.authors, vec![AuthorId(1), AuthorId(2)]);
    }

    #[test]
    fn unshuffled_is_contiguous() {
        let mut rng = StdRng::seed_from_u64(3);
        let updates = Unaggregator { max_batch: 1, shuffle: false }.stream(&corpus(), &mut rng);
        // Paper 0's five unit updates come first.
        assert!(updates[..5].iter().all(|u| u.paper == PaperId(0)));
    }

    proptest::proptest! {
        #[test]
        fn prop_deltas_reaggregate(
            counts in proptest::collection::vec(0u64..50, 1..30),
            max_batch in 1u64..10,
            shuffle in proptest::bool::ANY,
            seed in proptest::num::u64::ANY,
        ) {
            let c = Corpus::solo_from_counts(&counts);
            let mut rng = StdRng::seed_from_u64(seed);
            let updates = Unaggregator { max_batch, shuffle }.stream(&c, &mut rng);
            let mut sums: HashMap<PaperId, u64> = HashMap::new();
            for u in &updates {
                proptest::prop_assert!(u.delta >= 1 && u.delta <= max_batch);
                *sums.entry(u.paper).or_default() += u.delta;
            }
            for (i, &count) in counts.iter().enumerate() {
                proptest::prop_assert_eq!(sums.get(&PaperId(i as u64)).copied().unwrap_or(0), count);
            }
        }
    }
}
