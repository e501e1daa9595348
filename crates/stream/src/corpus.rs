//! A corpus of papers with exact ground truth.
//!
//! Experiments compare streaming estimates against the ground truth a
//! [`Corpus`] computes offline: per-author H-indices, the total
//! H-impact `h*(S) = Σ_a h*(a)` that §4 measures heaviness against, and
//! the scales (`n`, distinct cited papers, total citations) that the
//! additive guarantees are stated in.

use crate::model::{AuthorId, Paper};
use hindex_common::h_index;
use std::collections::HashMap;

/// An in-memory corpus of papers.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    papers: Vec<Paper>,
}

/// Exact offline statistics of a corpus.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Exact H-index per author.
    pub per_author: HashMap<AuthorId, u64>,
    /// `h*(S) = Σ_a h*(a)`, the denominator of §4's heaviness.
    pub total_h_impact: u64,
    /// H-index of the whole corpus viewed as one user's publication
    /// list (what the §3 algorithms estimate on single-user streams).
    pub combined_h: u64,
    /// Number of papers.
    pub n_papers: u64,
    /// Number of papers with at least one citation (the ℓ₀ scale of
    /// Algorithm 6's additive guarantee).
    pub distinct_cited: u64,
    /// Total citations over all papers, saturating at `u64::MAX`.
    pub total_citations: u64,
}

impl Corpus {
    /// Creates an empty corpus.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a corpus from a list of papers.
    #[must_use]
    pub fn from_papers(papers: Vec<Paper>) -> Self {
        Self { papers }
    }

    /// Creates a single-author corpus straight from citation counts
    /// (the §3 setting).
    #[must_use]
    pub fn solo_from_counts(counts: &[u64]) -> Self {
        Self {
            papers: counts
                .iter()
                .enumerate()
                .map(|(i, &c)| Paper::solo(i as u64, 0, c))
                .collect(),
        }
    }

    /// Adds one paper.
    pub fn push(&mut self, paper: Paper) {
        self.papers.push(paper);
    }

    /// The papers, in insertion order.
    #[must_use]
    pub fn papers(&self) -> &[Paper] {
        &self.papers
    }

    /// Number of papers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.papers.len()
    }

    /// Whether the corpus is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.papers.is_empty()
    }

    /// The citation counts in insertion order — the aggregate stream of
    /// the corpus.
    #[must_use]
    pub fn citation_counts(&self) -> Vec<u64> {
        self.papers.iter().map(|p| p.citations).collect()
    }

    /// Computes all exact statistics in one pass plus one
    /// H-index computation per author.
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "counts papers, which cannot reach 2⁶⁴"
    )]
    pub fn ground_truth(&self) -> GroundTruth {
        let mut by_author: HashMap<AuthorId, Vec<u64>> = HashMap::new();
        let mut distinct_cited = 0u64;
        let mut total_citations = 0u64;
        for p in &self.papers {
            if p.citations > 0 {
                distinct_cited += 1;
            }
            total_citations = total_citations.saturating_add(p.citations);
            for &a in &p.authors {
                by_author.entry(a).or_default().push(p.citations);
            }
        }
        let per_author: HashMap<AuthorId, u64> = by_author
            .into_iter()
            .map(|(a, counts)| (a, h_index(&counts)))
            .collect();
        let total_h_impact = per_author.values().sum();
        let combined_h = h_index(&self.citation_counts());
        GroundTruth {
            per_author,
            total_h_impact,
            combined_h,
            n_papers: self.papers.len() as u64,
            distinct_cited,
            total_citations,
        }
    }
}

impl GroundTruth {
    /// The authors whose H-index is at least `epsilon · total_h_impact`
    /// — the ground-truth heavy hitters of §4, sorted by descending
    /// H-index.
    #[must_use]
    pub fn heavy_hitters(&self, epsilon: f64) -> Vec<(AuthorId, u64)> {
        let bar = epsilon * self.total_h_impact as f64;
        let mut hh: Vec<(AuthorId, u64)> = self
            .per_author
            .iter()
            .filter(|&(_, &h)| h as f64 >= bar)
            .map(|(&a, &h)| (a, h))
            .collect();
        hh.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PaperId;

    fn sample_corpus() -> Corpus {
        // Author 1: counts [10, 5, 3] → h = 3.
        // Author 2: counts [5, 2] → h = 2.
        Corpus::from_papers(vec![
            Paper::solo(0, 1, 10),
            Paper::solo(1, 1, 5),
            Paper::solo(2, 1, 3),
            Paper::with_authors(3, &[2], 5),
            Paper::with_authors(4, &[2], 2),
        ])
    }

    #[test]
    fn ground_truth_per_author() {
        let gt = sample_corpus().ground_truth();
        assert_eq!(gt.per_author[&AuthorId(1)], 3);
        assert_eq!(gt.per_author[&AuthorId(2)], 2);
        assert_eq!(gt.total_h_impact, 5);
    }

    #[test]
    fn multi_author_papers_count_for_everyone() {
        let c = Corpus::from_papers(vec![
            Paper::with_authors(0, &[1, 2], 4),
            Paper::with_authors(1, &[1, 2], 4),
            Paper::with_authors(2, &[1], 4),
        ]);
        let gt = c.ground_truth();
        assert_eq!(gt.per_author[&AuthorId(1)], 3);
        assert_eq!(gt.per_author[&AuthorId(2)], 2);
    }

    #[test]
    fn combined_and_scales() {
        let gt = sample_corpus().ground_truth();
        assert_eq!(gt.combined_h, h_index(&[10, 5, 3, 5, 2]));
        assert_eq!(gt.n_papers, 5);
        assert_eq!(gt.distinct_cited, 5);
        assert_eq!(gt.total_citations, 25);
    }

    #[test]
    fn total_citations_saturate() {
        let c = Corpus::solo_from_counts(&[u64::MAX, 5]);
        assert_eq!(c.ground_truth().total_citations, u64::MAX);
    }

    #[test]
    fn distinct_cited_skips_zero() {
        let c = Corpus::from_papers(vec![Paper::solo(0, 1, 0), Paper::solo(1, 1, 2)]);
        assert_eq!(c.ground_truth().distinct_cited, 1);
    }

    #[test]
    fn heavy_hitters_threshold() {
        let gt = sample_corpus().ground_truth(); // total impact 5
        let hh = gt.heavy_hitters(0.5); // bar = 2.5 → only author 1 (h=3)
        assert_eq!(hh, vec![(AuthorId(1), 3)]);
        let all = gt.heavy_hitters(0.1); // bar = 0.5 → both
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], (AuthorId(1), 3)); // sorted descending
    }

    #[test]
    fn solo_from_counts_roundtrip() {
        let c = Corpus::solo_from_counts(&[4, 0, 7]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.papers()[2].id, PaperId(2));
        assert_eq!(c.citation_counts(), vec![4, 0, 7]);
        assert_eq!(c.ground_truth().per_author[&AuthorId(0)], 2);
    }

    #[test]
    fn empty_corpus() {
        let gt = Corpus::new().ground_truth();
        assert_eq!(gt.combined_h, 0);
        assert_eq!(gt.total_h_impact, 0);
        assert!(gt.heavy_hitters(0.1).is_empty());
    }
}
