//! Synthetic corpus generation.
//!
//! The paper is theory-only, so the experiment suite manufactures its
//! inputs. Real citation/retweet count distributions are heavy-tailed
//! (power laws with exponents around 2–3), which is also the "heavy
//! tail" premise of §4.2; [`CitationDist`] provides those plus the
//! degenerate distributions the worst-case tests need. Two *planted*
//! constructions give exact control of the quantity under test:
//!
//! * [`planted_h_corpus`] — a single-author corpus whose H-index is
//!   **exactly** `h` by construction;
//! * [`planted_heavy_hitters`] — a multi-author corpus where chosen
//!   authors are given large planted H-indices over a sea of
//!   low-impact authors.
//!
//! All generation is deterministic given a seed.

use crate::corpus::Corpus;
use crate::model::Paper;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distribution of per-paper citation counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CitationDist {
    /// Every paper has exactly this many citations.
    Constant(u64),
    /// Uniform on `[lo, hi]` inclusive.
    Uniform {
        /// Smallest citation count.
        lo: u64,
        /// Largest citation count.
        hi: u64,
    },
    /// Zipf / discrete power law: `P(k) ∝ k^(−exponent)` on
    /// `[1, max]`, `exponent > 1`.
    Zipf {
        /// Tail exponent (real citation data: ≈ 2–3).
        exponent: f64,
        /// Upper truncation.
        max: u64,
    },
    /// Discretized Pareto: `⌊scale · U^(−1/alpha)⌋ − scale` shifted to
    /// include zero-citation papers, truncated at `max`.
    Pareto {
        /// Shape parameter.
        alpha: f64,
        /// Scale parameter.
        scale: f64,
        /// Upper truncation.
        max: u64,
    },
}

impl CitationDist {
    /// Samples one citation count.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            CitationDist::Constant(k) => k,
            CitationDist::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform bounds inverted");
                rng.random_range(lo..=hi)
            }
            CitationDist::Zipf { exponent, max } => sample_zipf(exponent, max, rng),
            CitationDist::Pareto { alpha, scale, max } => {
                assert!(alpha > 0.0 && scale > 0.0, "pareto parameters must be positive");
                let u: f64 = rng.random();
                let x = scale * (1.0 - u).powf(-1.0 / alpha) - scale;
                (x.floor() as u64).min(max)
            }
        }
    }
}

/// Samples from `P(k) ∝ k^(−a)` on `[1, max]` using Devroye's rejection
/// method (exact for `a > 1`), retrying on truncation.
///
/// # Panics
///
/// Panics unless `a > 1` and `max ≥ 1`.
pub fn sample_zipf<R: Rng + ?Sized>(a: f64, max: u64, rng: &mut R) -> u64 {
    assert!(a > 1.0, "zipf exponent must exceed 1 (got {a})");
    assert!(max >= 1, "zipf needs a non-empty support");
    let b = 2f64.powf(a - 1.0);
    loop {
        let u: f64 = rng.random();
        let v: f64 = rng.random();
        // Continuous envelope: X = ⌊U^(−1/(a−1))⌋.
        let x = u.powf(-1.0 / (a - 1.0)).floor();
        if !x.is_finite() || x < 1.0 {
            continue;
        }
        let t = (1.0 + 1.0 / x).powf(a - 1.0);
        if v * x * (t - 1.0) / (b - 1.0) <= t / b {
            let k = x as u64;
            if k <= max {
                return k;
            }
        }
    }
}

/// Distribution of papers per author.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProductivityDist {
    /// Every author writes exactly this many papers.
    Constant(u64),
    /// Uniform on `[lo, hi]` inclusive.
    Uniform {
        /// Fewest papers.
        lo: u64,
        /// Most papers.
        hi: u64,
    },
    /// Zipf-distributed productivity (Lotka's law) on `[1, max]`.
    Zipf {
        /// Tail exponent.
        exponent: f64,
        /// Upper truncation.
        max: u64,
    },
}

impl ProductivityDist {
    /// Samples one author's paper count.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            ProductivityDist::Constant(k) => k,
            ProductivityDist::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform bounds inverted");
                rng.random_range(lo..=hi)
            }
            ProductivityDist::Zipf { exponent, max } => sample_zipf(exponent, max, rng),
        }
    }
}

/// Configurable corpus generator.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    /// Number of authors.
    pub n_authors: u64,
    /// Papers per author.
    pub productivity: ProductivityDist,
    /// Citations per paper.
    pub citations: CitationDist,
    /// Co-author count per paper is uniform on `[1, max_coauthors]`;
    /// extra authors are drawn uniformly from the author set. `1`
    /// yields single-author papers (the §3 setting).
    pub max_coauthors: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusGenerator {
    fn default() -> Self {
        Self {
            n_authors: 100,
            productivity: ProductivityDist::Constant(20),
            citations: CitationDist::Zipf { exponent: 2.0, max: 100_000 },
            max_coauthors: 1,
            seed: 0,
        }
    }
}

impl CorpusGenerator {
    /// Generates the corpus. Paper ids are dense `0..n_papers`.
    #[must_use]
    pub fn generate(&self) -> Corpus {
        assert!(self.n_authors >= 1, "need at least one author");
        assert!(self.max_coauthors >= 1, "papers need at least one author");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut corpus = Corpus::new();
        let mut paper_id = 0u64;
        for author in 0..self.n_authors {
            let n_papers = self.productivity.sample(&mut rng);
            for _ in 0..n_papers {
                let c = self.citations.sample(&mut rng);
                let mut authors = vec![author];
                if self.max_coauthors > 1 {
                    let extra = rng.random_range(0..self.max_coauthors);
                    for _ in 0..extra {
                        let co = rng.random_range(0..self.n_authors);
                        if !authors.contains(&co) {
                            authors.push(co);
                        }
                    }
                }
                corpus.push(Paper::with_authors(paper_id, &authors, c));
                paper_id += 1;
            }
        }
        corpus
    }
}

/// Builds a single-author corpus whose H-index is **exactly** `h`.
///
/// Construction: `h` papers with citations uniform in `[h, head_max]`
/// (the H-support), and `n_papers − h` noise papers with citations
/// uniform in `[0, h−1]` (never counting toward level `h+1`); hence at
/// least `h` papers have `≥ h` citations, and at most `h` papers have
/// `≥ h+1`, so `h* = h` exactly (for `h ≥ 1`; `h = 0` yields all-zero
/// noise papers).
///
/// # Panics
///
/// Panics if `h > n_papers as u64`.
#[must_use]
pub fn planted_h_corpus(h: u64, n_papers: usize, seed: u64) -> Corpus {
    assert!(h <= n_papers as u64, "cannot plant h = {h} in {n_papers} papers");
    let mut rng = StdRng::seed_from_u64(seed);
    let head_max = (3 * h).max(1);
    let mut counts = Vec::with_capacity(n_papers);
    for _ in 0..h {
        counts.push(rng.random_range(h..=head_max));
    }
    for _ in h..n_papers as u64 {
        counts.push(if h == 0 { 0 } else { rng.random_range(0..h) });
    }
    Corpus::solo_from_counts(&counts)
}

/// Builds a multi-author corpus with chosen authors planted as heavy
/// hitters.
///
/// Heavy author `i` gets a planted H-index of `heavy_h[i]`; `n_noise`
/// further authors each write `noise_papers` papers with citations
/// uniform in `[0, noise_max]`. Author ids: heavy authors are
/// `0..heavy_h.len()`, noise authors follow.
#[must_use]
pub fn planted_heavy_hitters(
    heavy_h: &[u64],
    n_noise: u64,
    noise_papers: u64,
    noise_max: u64,
    seed: u64,
) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus = Corpus::new();
    let mut paper_id = 0u64;
    for (author, &h) in heavy_h.iter().enumerate() {
        let head_max = (3 * h).max(1);
        for _ in 0..h {
            let c = rng.random_range(h..=head_max);
            corpus.push(Paper::solo(paper_id, author as u64, c));
            paper_id += 1;
        }
        // A few sub-h noise papers so the planted authors are not
        // degenerate "every paper counts" users.
        for _ in 0..(h / 2) {
            let c = if h == 0 { 0 } else { rng.random_range(0..h) };
            corpus.push(Paper::solo(paper_id, author as u64, c));
            paper_id += 1;
        }
    }
    let base = heavy_h.len() as u64;
    for a in 0..n_noise {
        for _ in 0..noise_papers {
            let c = rng.random_range(0..=noise_max);
            corpus.push(Paper::solo(paper_id, base + a, c));
            paper_id += 1;
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AuthorId;
    use hindex_common::h_index;

    #[test]
    fn constant_and_uniform_dists() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(CitationDist::Constant(9).sample(&mut rng), 9);
        for _ in 0..100 {
            let v = CitationDist::Uniform { lo: 3, hi: 7 }.sample(&mut rng);
            assert!((3..=7).contains(&v));
        }
    }

    #[test]
    fn zipf_support_and_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = CitationDist::Zipf { exponent: 2.0, max: 1000 };
        let n = 50_000;
        let mut ones = 0u64;
        let mut twos = 0u64;
        for _ in 0..n {
            let v = d.sample(&mut rng);
            assert!((1..=1000).contains(&v));
            if v == 1 {
                ones += 1;
            } else if v == 2 {
                twos += 1;
            }
        }
        // P(1)/P(2) = 2^a = 4 for a = 2; allow generous slack.
        let ratio = ones as f64 / twos as f64;
        assert!((3.0..5.2).contains(&ratio), "ratio {ratio}");
        // P(1) = 1/ζ(2) ≈ 0.61 for the untruncated law.
        let p1 = ones as f64 / f64::from(n);
        assert!((0.55..0.67).contains(&p1), "p1 {p1}");
    }

    #[test]
    fn zipf_heavier_exponent_means_lighter_tail() {
        let mut rng = StdRng::seed_from_u64(2);
        let sample_max = |a: f64, rng: &mut StdRng| {
            (0..5000)
                .map(|_| sample_zipf(a, 1_000_000, rng))
                .max()
                .unwrap()
        };
        let heavy = sample_max(1.5, &mut rng);
        let light = sample_max(3.0, &mut rng);
        assert!(heavy > light, "heavy {heavy} vs light {light}");
    }

    #[test]
    #[should_panic(expected = "exponent must exceed 1")]
    fn zipf_exponent_one_panics() {
        let _ = sample_zipf(1.0, 10, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn pareto_truncates() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = CitationDist::Pareto { alpha: 1.2, scale: 5.0, max: 50 };
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) <= 50);
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let g = CorpusGenerator { seed: 42, ..CorpusGenerator::default() };
        let a = g.generate();
        let b = g.generate();
        assert_eq!(a.papers(), b.papers());
    }

    #[test]
    fn generator_respects_counts() {
        let g = CorpusGenerator {
            n_authors: 10,
            productivity: ProductivityDist::Constant(5),
            citations: CitationDist::Constant(1),
            max_coauthors: 1,
            seed: 0,
        };
        let c = g.generate();
        assert_eq!(c.len(), 50);
        let gt = c.ground_truth();
        assert_eq!(gt.per_author.len(), 10);
        for &h in gt.per_author.values() {
            assert_eq!(h, 1); // five papers with one citation each
        }
    }

    #[test]
    fn generator_coauthors_bounded() {
        let g = CorpusGenerator {
            n_authors: 20,
            productivity: ProductivityDist::Constant(3),
            max_coauthors: 4,
            seed: 7,
            ..CorpusGenerator::default()
        };
        for p in g.generate().papers() {
            assert!(!p.authors.is_empty() && p.authors.len() <= 4);
            // No duplicate authors on a paper.
            let mut a: Vec<_> = p.authors.clone();
            a.sort_unstable();
            a.dedup();
            assert_eq!(a.len(), p.authors.len());
        }
    }

    #[test]
    fn planted_h_is_exact() {
        for &(h, n) in &[(0u64, 10usize), (1, 10), (5, 100), (50, 1000), (100, 100)] {
            for seed in 0..5 {
                let c = planted_h_corpus(h, n, seed);
                assert_eq!(c.len(), n);
                assert_eq!(h_index(&c.citation_counts()), h, "h={h} n={n} seed={seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot plant")]
    fn planted_h_too_large_panics() {
        let _ = planted_h_corpus(11, 10, 0);
    }

    #[test]
    fn planted_heavy_hitters_ground_truth() {
        let c = planted_heavy_hitters(&[40, 25], 50, 10, 2, 9);
        let gt = c.ground_truth();
        assert_eq!(gt.per_author[&AuthorId(0)], 40);
        assert_eq!(gt.per_author[&AuthorId(1)], 25);
        // Noise authors have h ≤ 2 (citations capped at 2).
        for a in 2..52u64 {
            assert!(gt.per_author[&AuthorId(a)] <= 2, "author {a}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn prop_planted_h_exact(h in 0u64..200, extra in 0usize..200, seed in proptest::num::u64::ANY) {
            let n = h as usize + extra;
            let c = planted_h_corpus(h, n, seed);
            proptest::prop_assert_eq!(h_index(&c.citation_counts()), h);
        }

        #[test]
        fn prop_zipf_in_range(a_tenths in 12u32..40, max in 1u64..10_000, seed in proptest::num::u64::ANY) {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = sample_zipf(f64::from(a_tenths) / 10.0, max, &mut rng);
            proptest::prop_assert!((1..=max).contains(&v));
        }
    }
}
