//! Per-author streaming H-index over shared streams.
//!
//! §2.3: "for the sake of simplicity we assume … only one author in the
//! stream. This can easily be extended to papers with multiple authors
//! and computing H-index for each author." This module is that
//! extension, for the two cases a deployment actually meets:
//!
//! * [`TrackedAuthorsAggregate`] — a chosen set of authors, each with a
//!   private [`ShiftingWindow`] (Algorithm 2), fed from one shared
//!   paper stream. Space: `O(|tracked| · ε⁻¹ log ε⁻¹)` words,
//!   independent of the stream.
//! * [`TrackedAuthorsCash`] — the same for the cash-register model: a
//!   private Algorithm 6 sketch per tracked author, fed from one shared
//!   update stream (updates carry the paper's authors, as
//!   [`hindex_stream::CashUpdate`] does).
//!
//! For *finding* impactful authors without naming them first, use
//! [`crate::HeavyHitters`]; these trackers are the cheap follow-up once
//! the candidate set is known (the classic two-phase mining pattern).

use crate::cash_register::{CashRegisterHIndex, CashRegisterParams};
use crate::shifting_window::ShiftingWindow;
use hindex_common::{AggregateEstimator, CashRegisterEstimator, Epsilon, Estimate, SpaceUsage};
use hindex_stream::{AuthorId, Paper};
use rand::Rng;
use std::collections::HashMap;

/// Per-author Algorithm 2 estimators over a shared aggregate paper
/// stream.
#[derive(Debug, Clone)]
pub struct TrackedAuthorsAggregate {
    estimators: HashMap<AuthorId, ShiftingWindow>,
}

impl TrackedAuthorsAggregate {
    /// Tracks the given authors at accuracy `ε`.
    #[must_use]
    pub fn new(authors: &[AuthorId], epsilon: Epsilon) -> Self {
        Self {
            estimators: authors
                .iter()
                .map(|&a| (a, ShiftingWindow::new(epsilon)))
                .collect(),
        }
    }

    /// Feeds one paper: it counts toward each *tracked* author on it.
    pub fn push(&mut self, paper: &Paper) {
        for a in &paper.authors {
            if let Some(est) = self.estimators.get_mut(a) {
                est.ingest(paper.citations);
            }
        }
    }

    /// The current estimate for a tracked author (`None` if untracked).
    #[must_use]
    pub fn estimate(&self, author: AuthorId) -> Option<u64> {
        self.estimators.get(&author).map(Estimate::estimate)
    }

    /// All tracked authors with their estimates, sorted descending.
    #[must_use]
    pub fn leaderboard(&self) -> Vec<(AuthorId, u64)> {
        let mut v: Vec<(AuthorId, u64)> = self
            .estimators
            .iter()
            .map(|(&a, e)| (a, e.estimate()))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl SpaceUsage for TrackedAuthorsAggregate {
    fn space_words(&self) -> usize {
        self.estimators
            .values()
            .map(|e| e.space_words() + 1)
            .sum()
    }
}

/// Per-author Algorithm 6 sketches over a shared cash-register update
/// stream.
#[derive(Debug, Clone)]
pub struct TrackedAuthorsCash {
    estimators: HashMap<AuthorId, CashRegisterHIndex>,
}

impl TrackedAuthorsCash {
    /// Tracks the given authors; each gets an independent sketch drawn
    /// from `rng`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        authors: &[AuthorId],
        params: CashRegisterParams,
        rng: &mut R,
    ) -> Self {
        Self {
            estimators: authors
                .iter()
                .map(|&a| (a, CashRegisterHIndex::new(params, rng)))
                .collect(),
        }
    }

    /// Feeds one update `(paper, authors, delta)`: it is applied to the
    /// sketch of each tracked author on the paper.
    pub fn update(&mut self, paper: u64, authors: &[AuthorId], delta: u64) {
        for a in authors {
            if let Some(est) = self.estimators.get_mut(a) {
                est.ingest(paper, delta);
            }
        }
    }

    /// The current estimate for a tracked author (`None` if untracked).
    #[must_use]
    pub fn estimate(&self, author: AuthorId) -> Option<u64> {
        self.estimators.get(&author).map(Estimate::estimate)
    }
}

impl SpaceUsage for TrackedAuthorsCash {
    fn space_words(&self) -> usize {
        self.estimators
            .values()
            .map(|e| e.space_words() + 1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::Delta;
    use hindex_stream::generator::planted_heavy_hitters;
    use hindex_stream::Unaggregator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(e: f64) -> Epsilon {
        Epsilon::new(e).unwrap()
    }

    #[test]
    fn aggregate_tracks_each_author_independently() {
        let corpus = planted_heavy_hitters(&[60, 30], 10, 3, 2, 1);
        let truth = corpus.ground_truth();
        let tracked = [AuthorId(0), AuthorId(1), AuthorId(5)];
        let mut t = TrackedAuthorsAggregate::new(&tracked, eps(0.1));
        for p in corpus.papers() {
            t.push(p);
        }
        for &a in &tracked {
            let truth_h = truth.per_author.get(&a).copied().unwrap_or(0);
            let got = t.estimate(a).unwrap();
            assert!(got <= truth_h, "author {a}");
            assert!(
                got as f64 >= 0.9 * truth_h as f64,
                "author {a}: got {got} truth {truth_h}"
            );
        }
        assert_eq!(t.estimate(AuthorId(999)), None);
    }

    #[test]
    fn leaderboard_sorted() {
        let corpus = planted_heavy_hitters(&[60, 30], 0, 0, 0, 2);
        let mut t =
            TrackedAuthorsAggregate::new(&[AuthorId(0), AuthorId(1)], eps(0.1));
        for p in corpus.papers() {
            t.push(p);
        }
        let lb = t.leaderboard();
        assert_eq!(lb.len(), 2);
        assert_eq!(lb[0].0, AuthorId(0));
        assert!(lb[0].1 >= lb[1].1);
    }

    #[test]
    fn multi_author_papers_count_for_all_tracked() {
        let mut t = TrackedAuthorsAggregate::new(&[AuthorId(1), AuthorId(2)], eps(0.1));
        for i in 0..50u64 {
            t.push(&Paper::with_authors(i, &[1, 2], 100));
        }
        let h1 = t.estimate(AuthorId(1)).unwrap();
        let h2 = t.estimate(AuthorId(2)).unwrap();
        assert_eq!(h1, h2);
        assert!(h1 >= 45);
    }

    #[test]
    fn cash_tracker_follows_per_author_truth() {
        // Author 0: 25 papers × 30 citations (h = 25);
        // author 1: 10 papers × 30 citations (h = 10).
        let mut corpus = hindex_stream::Corpus::new();
        for i in 0..25u64 {
            corpus.push(Paper::solo(i, 0, 30));
        }
        for i in 25..35u64 {
            corpus.push(Paper::solo(i, 1, 30));
        }
        let params = CashRegisterParams::Additive {
            epsilon: eps(0.25),
            delta: Delta::new(0.1).unwrap(),
        };
        let mut ok = 0;
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = TrackedAuthorsCash::new(&[AuthorId(0), AuthorId(1)], params, &mut rng);
            for u in Unaggregator::default().stream(&corpus, &mut rng) {
                t.update(u.paper.0, &u.authors, u.delta);
            }
            let h0 = t.estimate(AuthorId(0)).unwrap();
            let h1 = t.estimate(AuthorId(1)).unwrap();
            if (h0 as f64 - 25.0).abs() <= 7.0 && (h1 as f64 - 10.0).abs() <= 4.0 {
                ok += 1;
            }
        }
        assert!(ok >= 5, "per-author cash estimates off in {}/6 runs", 6 - ok);
    }

    #[test]
    fn space_scales_with_tracked_count() {
        let few = TrackedAuthorsAggregate::new(&[AuthorId(0)], eps(0.2));
        let many: Vec<AuthorId> = (0..10).map(AuthorId).collect();
        let many = TrackedAuthorsAggregate::new(&many, eps(0.2));
        assert!(many.space_words() > 5 * few.space_words());
        assert_eq!(many.leaderboard().len(), 10);
    }
}
