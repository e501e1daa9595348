//! Exact per-author H-index tracking — the store-everything analogue of
//! §4's heavy-hitter mining.

use hindex_common::{IncrementalHIndex, SpaceUsage};
use hindex_stream::{AuthorId, Paper};
use std::collections::HashMap;

/// Exact per-author H-indices over a stream of paper tuples.
///
/// Keeps one [`IncrementalHIndex`] (the `O(h)`-word exact tracker) per
/// author, so total space is `Θ(Σ_a h*(a) + |A|)` words — the baseline
/// Algorithm 8's sublinear sketch is measured against in E9/E11.
#[derive(Debug, Clone, Default)]
pub struct AuthorTable {
    authors: HashMap<AuthorId, IncrementalHIndex>,
}

impl AuthorTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one paper tuple; the paper counts toward each author.
    pub fn ingest(&mut self, paper: &Paper) {
        for &a in &paper.authors {
            self.authors.entry(a).or_default().insert(paper.citations);
        }
    }

    /// Exact H-index of an author (0 if unseen).
    #[must_use]
    pub fn h_index(&self, author: AuthorId) -> u64 {
        self.authors.get(&author).map_or(0, IncrementalHIndex::h_index)
    }

    /// Exact total impact `h*(S) = Σ_a h*(a)`.
    #[must_use]
    pub fn total_impact(&self) -> u64 {
        self.authors.values().map(IncrementalHIndex::h_index).sum()
    }

    /// Number of distinct authors seen.
    #[must_use]
    pub fn num_authors(&self) -> usize {
        self.authors.len()
    }

    /// The exact ε-heavy hitters, sorted by descending H-index.
    #[must_use]
    pub fn heavy_hitters(&self, epsilon: f64) -> Vec<(AuthorId, u64)> {
        let bar = epsilon * self.total_impact() as f64;
        let mut hh: Vec<(AuthorId, u64)> = self
            .authors
            .iter()
            .map(|(&a, ih)| (a, ih.h_index()))
            .filter(|&(_, h)| h as f64 >= bar)
            .collect();
        hh.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hh
    }
}

impl SpaceUsage for AuthorTable {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated trackers fit in usize"
    )]
    fn space_words(&self) -> usize {
        self.authors
            .values()
            .map(|ih| ih.space_words() + 1)
            .sum::<usize>()
            + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_stream::generator::planted_heavy_hitters;
    use hindex_stream::Corpus;

    fn feed(corpus: &Corpus) -> AuthorTable {
        let mut t = AuthorTable::new();
        for p in corpus.papers() {
            t.ingest(p);
        }
        t
    }

    #[test]
    fn matches_corpus_ground_truth() {
        let corpus = planted_heavy_hitters(&[25, 10], 20, 5, 3, 1);
        let truth = corpus.ground_truth();
        let table = feed(&corpus);
        for (&a, &h) in &truth.per_author {
            assert_eq!(table.h_index(a), h, "author {a}");
        }
        assert_eq!(table.total_impact(), truth.total_h_impact);
        assert_eq!(table.num_authors(), truth.per_author.len());
    }

    #[test]
    fn heavy_hitters_agree_with_ground_truth() {
        let corpus = planted_heavy_hitters(&[40, 30, 5], 30, 4, 2, 2);
        let truth = corpus.ground_truth();
        let table = feed(&corpus);
        for e in [0.05, 0.1, 0.3] {
            assert_eq!(table.heavy_hitters(e), truth.heavy_hitters(e), "eps {e}");
        }
    }

    #[test]
    fn unseen_author_is_zero() {
        let table = AuthorTable::new();
        assert_eq!(table.h_index(AuthorId(99)), 0);
        assert_eq!(table.total_impact(), 0);
    }

    #[test]
    fn space_tracks_sum_of_h() {
        use hindex_stream::Paper;
        let mut t = AuthorTable::new();
        for i in 0..100u64 {
            t.ingest(&Paper::solo(i, i % 10, 1000));
        }
        // 10 authors with h = 10 each: ~10·(10+2) words.
        let w = t.space_words();
        assert!((100..=200).contains(&w), "words {w}");
    }
}
