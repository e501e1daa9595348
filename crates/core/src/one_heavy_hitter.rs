//! Algorithm 7 / Theorem 17: detecting a single dominant author.
//!
//! Given a stream of papers `(p, a₁ … a_y, c_p)`, distinguish:
//!
//! 1. some author's H-index accounts for a `(1−ε)` fraction of the
//!    combined H-impact of the stream — return that author with an
//!    estimate of the combined H-index, versus
//! 2. no such author exists (noise, or several comparable authors) —
//!    return [`OneHeavyHitterOutcome::Fail`].
//!
//! Mechanism: Algorithm 1's exponential histogram runs over the
//! citation counts, and every threshold level additionally keeps a
//! uniform [`Reservoir`] of `s` author-lists sampled from the papers
//! clearing that level. At the end, the decode looks at the sample of
//! the *winning* level `i*` (the histogram's answer): if the stream's
//! H-impact is dominated by one author, that author appears on a
//! `(1−ε)` fraction of the H-support papers, hence on a majority of
//! the sample whp (Chernoff + union bound over the `log_{1+ε} n`
//! levels — this is where the paper's `s = 2 log(log n/δ)` comes from).
//!
//! **Decode concretization (the "new decoding" the paper's intro
//! promises, made explicit here):** a `(1−ε)`-fraction test needs a
//! sample large enough to resolve ε, so the reservoir capacity is
//! `max(⌈2 log₂(log₂ n_max / δ)⌉, ⌈3/ε⌉)` and the test accepts the
//! plurality author when it covers at least `(1 − ε − slack)` of the
//! sample, `slack = ε/2`.

use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use hindex_common::{Epsilon, ExpGrid, Mergeable, SpaceUsage};
use hindex_sketch::Reservoir;
use hindex_stream::{AuthorId, Paper};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::rc::Rc;

/// Result of [`OneHeavyHitter::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OneHeavyHitterOutcome {
    /// One author dominates the bucket; their H-index is approximated
    /// by `h_estimate`.
    Author {
        /// The dominant author.
        author: AuthorId,
        /// `(1−ε)`-approximation of the bucket's combined H-index,
        /// which under dominance approximates the author's own.
        h_estimate: u64,
    },
    /// No single dominant author (noisy stream or competing heavy
    /// hitters).
    Fail,
}

/// Streaming single-heavy-hitter detector (Algorithm 7).
#[derive(Debug, Clone)]
pub struct OneHeavyHitter {
    epsilon: f64,
    grid: ExpGrid,
    /// `buckets[i]` = papers whose highest cleared level is exactly `i`.
    buckets: Vec<u64>,
    /// Per-level uniform samples of the author lists of papers
    /// clearing the level.
    reservoirs: Vec<Reservoir<Rc<[AuthorId]>>>,
    sample_size: usize,
    rng: StdRng,
    papers_seen: u64,
}

impl OneHeavyHitter {
    /// Creates a detector.
    ///
    /// `delta` controls the per-level sample-size term
    /// `⌈2 log₂(64/δ)⌉` (the paper's `2 log(log n/δ)` with
    /// `log n ≤ 64` for `u64` counts).
    #[must_use]
    pub fn new<R: Rng + ?Sized>(epsilon: Epsilon, delta: f64, rng: &mut R) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        let e = epsilon.get();
        let s_conf = (2.0 * (64.0 / delta).log2()).ceil() as usize;
        let s_eps = (3.0 / e).ceil() as usize;
        Self {
            epsilon: e,
            grid: ExpGrid::new(e),
            buckets: Vec::new(),
            reservoirs: Vec::new(),
            sample_size: s_conf.max(s_eps),
            rng: StdRng::seed_from_u64(rng.random()),
            papers_seen: 0,
        }
    }

    /// The per-level reservoir capacity in use.
    #[must_use]
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Feeds one paper tuple.
    pub fn push(&mut self, paper: &Paper) {
        self.push_parts(&paper.authors, paper.citations);
    }

    /// Feeds one paper given as `(authors, citations)` (used by
    /// Algorithm 8, which routes papers without materializing `Paper`
    /// values per bucket).
    pub(crate) fn push_parts(&mut self, authors: &[AuthorId], citations: u64) {
        self.papers_seen += 1;
        let Some(level) = self.grid.level_of(citations) else {
            return;
        };
        let level = level as usize;
        if level >= self.buckets.len() {
            self.buckets.resize(level + 1, 0);
            self.reservoirs
                .resize_with(level + 1, || Reservoir::new(self.sample_size));
        }
        self.buckets[level] += 1;
        let shared: Rc<[AuthorId]> = Rc::from(authors);
        for r in &mut self.reservoirs[..=level] {
            r.offer(Rc::clone(&shared), &mut self.rng);
        }
    }

    /// The exponential-histogram estimate of the bucket's combined
    /// H-index (Algorithm 1 embedded in Algorithm 7), together with the
    /// winning level.
    #[must_use]
    pub(crate) fn combined_h_estimate(&self) -> (u64, Option<usize>) {
        let mut suffix = 0u64;
        for (level, &b) in self.buckets.iter().enumerate().rev() {
            suffix += b;
            let t = self.grid.int_threshold(level as u32);
            if suffix >= t {
                return (t, Some(level));
            }
        }
        (0, None)
    }

    /// All authors covering a `(1−ε)` fraction of the winning level's
    /// sample, with the combined-H estimate. Usually zero or one
    /// author; fully co-authored streams can qualify several, and
    /// Algorithm 8's decode wants them all.
    #[must_use]
    pub(crate) fn decode_candidates(&self) -> Vec<(AuthorId, u64)> {
        let (h_estimate, Some(level)) = self.combined_h_estimate() else {
            return Vec::new();
        };
        // `combined_h_estimate` only returns levels it indexed itself.
        debug_assert!(level < self.reservoirs.len());
        let sample = self.reservoirs[level].items();
        if sample.is_empty() {
            return Vec::new();
        }
        let mut counts: HashMap<AuthorId, usize> = HashMap::new();
        for authors in sample {
            for &a in authors.iter() {
                *counts.entry(a).or_default() += 1;
            }
        }
        let bar = (1.0 - 1.5 * self.epsilon) * sample.len() as f64;
        let mut qualifying: Vec<(AuthorId, u64)> = counts
            .into_iter()
            .filter(|&(_, c)| c as f64 >= bar)
            .map(|(a, _)| (a, h_estimate))
            .collect();
        qualifying.sort_unstable_by_key(|&(a, _)| a);
        qualifying
    }

    /// Runs the end-of-stream decode, Theorem 17 style: the single
    /// dominant author, or [`OneHeavyHitterOutcome::Fail`]. When
    /// several co-authors tie above the bar, the smallest author id is
    /// reported.
    #[must_use]
    pub fn decode(&self) -> OneHeavyHitterOutcome {
        match self.decode_candidates().into_iter().next() {
            Some((author, h_estimate)) => OneHeavyHitterOutcome::Author { author, h_estimate },
            None => OneHeavyHitterOutcome::Fail,
        }
    }
}

/// Payload: `ε`, the reservoir capacity, the paper tally, the embedded
/// generator's four state words, then per materialised level its
/// bucket count and reservoir (`seen`, then each retained author list
/// as a length-prefixed id sequence). `Rc` sharing between levels is
/// not preserved — the restored detector holds equal, unshared lists —
/// which changes memory footprint but no observable state. Reservoirs
/// are rebuilt through [`Reservoir::from_parts`], so the fill law is
/// re-validated totally; the histogram's no-trailing-zero invariant is
/// checked like the standalone exponential histogram's.
impl Snapshot for OneHeavyHitter {
    const TAG: u8 = 17;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_f64(self.epsilon);
        w.put_usize(self.sample_size);
        w.put_u64(self.papers_seen);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_usize(self.buckets.len());
        for (level, &b) in self.buckets.iter().enumerate() {
            w.put_u64(b);
            let res = &self.reservoirs[level];
            w.put_u64(res.seen());
            w.put_usize(res.items().len());
            for authors in res.items() {
                w.put_usize(authors.len());
                for a in authors.iter() {
                    w.put_u64(a.0);
                }
            }
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let epsilon = r.get_f64()?;
        if !(epsilon.is_finite() && epsilon > 0.0 && epsilon < 1.0) {
            return Err(SnapshotError::Invalid("epsilon outside (0, 1)"));
        }
        let sample_size = r.get_usize()?;
        if sample_size == 0 {
            return Err(SnapshotError::Invalid("sample size must be positive"));
        }
        let papers_seen = r.get_u64()?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.get_u64()?;
        }
        // Each level carries at least 24 bytes (bucket, seen, item
        // count), which bounds the pre-allocation.
        let levels = r.get_count(24)?;
        let mut buckets = Vec::with_capacity(levels);
        let mut reservoirs = Vec::with_capacity(levels);
        for _ in 0..levels {
            buckets.push(r.get_u64()?);
            let seen = r.get_u64()?;
            let item_count = r.get_count(8)?;
            let mut items: Vec<Rc<[AuthorId]>> = Vec::with_capacity(item_count);
            for _ in 0..item_count {
                let authors = r.get_count(8)?;
                let mut list = Vec::with_capacity(authors);
                for _ in 0..authors {
                    list.push(AuthorId(r.get_u64()?));
                }
                items.push(Rc::from(list));
            }
            let res = Reservoir::from_parts(sample_size, items, seen)
                .ok_or(SnapshotError::Invalid("reservoir fill law violated"))?;
            reservoirs.push(res);
        }
        if buckets.last() == Some(&0) {
            return Err(SnapshotError::Invalid("trailing zero bucket"));
        }
        Ok(Self {
            epsilon,
            grid: ExpGrid::new(epsilon),
            buckets,
            reservoirs,
            sample_size,
            rng: StdRng::from_state(state),
            papers_seen,
        })
    }
}

/// Merges a same-parameters detector fed a disjoint shard of the
/// stream. The embedded exponential histogram merges exactly (bucket
/// counts add levelwise); the per-level reservoirs merge via
/// [`Reservoir::merge_with`], so the merged sample is *distributionally*
/// a uniform sample of the union — decode outcomes match single-stream
/// ingestion in distribution, not bit-for-bit. Randomness for the
/// reservoir merge is drawn from `self`'s internal RNG.
impl Mergeable for OneHeavyHitter {
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.grid, other.grid, "detectors must share epsilon");
        assert_eq!(
            self.sample_size, other.sample_size,
            "detectors must share sample size"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
            self.reservoirs
                .resize_with(other.reservoirs.len(), || Reservoir::new(self.sample_size));
        }
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        for (r, o) in self.reservoirs.iter_mut().zip(&other.reservoirs) {
            r.merge_with(o, &mut self.rng);
        }
        self.papers_seen += other.papers_seen;
    }
}

impl SpaceUsage for OneHeavyHitter {
    fn space_words(&self) -> usize {
        let sample_words: usize = self
            .reservoirs
            .iter()
            .map(|r| r.items().iter().map(|a| a.len() + 1).sum::<usize>() + 1)
            .sum();
        self.buckets.len() + sample_words + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_stream::generator::planted_heavy_hitters;
    use hindex_stream::Corpus;

    fn detector(e: f64, seed: u64) -> OneHeavyHitter {
        let mut rng = StdRng::seed_from_u64(seed);
        OneHeavyHitter::new(Epsilon::new(e).unwrap(), 0.05, &mut rng)
    }

    fn feed(det: &mut OneHeavyHitter, corpus: &Corpus) {
        for p in corpus.papers() {
            det.push(p);
        }
    }

    #[test]
    fn empty_stream_fails() {
        assert_eq!(detector(0.2, 0).decode(), OneHeavyHitterOutcome::Fail);
    }

    #[test]
    fn single_author_stream_detected() {
        // All papers by one author: trivially 1-heavy.
        let corpus = planted_heavy_hitters(&[50], 0, 0, 0, 1);
        let truth = corpus.ground_truth();
        let mut hits = 0;
        for seed in 0..20 {
            let mut det = detector(0.2, seed);
            feed(&mut det, &corpus);
            if let OneHeavyHitterOutcome::Author { author, h_estimate } = det.decode() {
                assert_eq!(author, AuthorId(0));
                let h = truth.per_author[&AuthorId(0)];
                assert!(
                    h_estimate <= h && h_estimate as f64 >= 0.8 * h as f64,
                    "seed {seed}: est {h_estimate} truth {h}"
                );
                hits += 1;
            }
        }
        assert!(hits >= 19, "detected only {hits}/20");
    }

    #[test]
    fn dominant_author_with_light_noise_detected() {
        // One author with h = 60; noise authors contribute papers whose
        // citations stay below the winning threshold region.
        let corpus = planted_heavy_hitters(&[60], 30, 4, 3, 2);
        let mut hits = 0;
        for seed in 0..20 {
            let mut det = detector(0.25, seed);
            feed(&mut det, &corpus);
            if let OneHeavyHitterOutcome::Author { author, .. } = det.decode() {
                assert_eq!(author, AuthorId(0), "seed {seed}");
                hits += 1;
            }
        }
        assert!(hits >= 17, "detected only {hits}/20");
    }

    #[test]
    fn two_equal_authors_fail() {
        // Two authors with identical heavy profiles: neither is
        // (1−ε)-dominant, so the decode must not certify either.
        let corpus = planted_heavy_hitters(&[40, 40], 0, 0, 0, 3);
        let mut fails = 0;
        for seed in 0..20 {
            let mut det = detector(0.2, seed);
            feed(&mut det, &corpus);
            if det.decode() == OneHeavyHitterOutcome::Fail {
                fails += 1;
            }
        }
        assert!(fails >= 17, "only {fails}/20 runs failed as required");
    }

    #[test]
    fn noise_only_stream_fails_or_reports_tiny() {
        // Many authors, none heavy: if anything is returned its
        // h-estimate must be small.
        let corpus = planted_heavy_hitters(&[], 100, 5, 4, 4);
        for seed in 0..10 {
            let mut det = detector(0.2, seed);
            feed(&mut det, &corpus);
            if let OneHeavyHitterOutcome::Author { h_estimate, .. } = det.decode() {
                assert!(h_estimate <= 6, "seed {seed}: reported h {h_estimate}");
            }
        }
    }

    #[test]
    fn multi_author_papers_attribute_to_all() {
        // Papers co-authored by (0, 1) everywhere: both authors cover
        // 100% of the support, the plurality tie-break must still
        // certify one of them.
        use hindex_stream::Paper;
        let papers: Vec<Paper> = (0..50)
            .map(|i| Paper::with_authors(i, &[0, 1], 60))
            .collect();
        let corpus = Corpus::from_papers(papers);
        let mut det = detector(0.2, 7);
        feed(&mut det, &corpus);
        match det.decode() {
            OneHeavyHitterOutcome::Author { author, .. } => {
                assert!(author == AuthorId(0) || author == AuthorId(1));
            }
            OneHeavyHitterOutcome::Fail => panic!("dominant co-authors not detected"),
        }
    }

    #[test]
    fn h_estimate_is_histogram_estimate() {
        let corpus = planted_heavy_hitters(&[30], 0, 0, 0, 5);
        let mut det = detector(0.2, 8);
        feed(&mut det, &corpus);
        let (h, level) = det.combined_h_estimate();
        assert!(level.is_some());
        if let OneHeavyHitterOutcome::Author { h_estimate, .. } = det.decode() {
            assert_eq!(h_estimate, h);
        } else {
            panic!("expected detection");
        }
    }

    #[test]
    fn sample_size_scales() {
        let mut rng = StdRng::seed_from_u64(0);
        let loose = OneHeavyHitter::new(Epsilon::new(0.5).unwrap(), 0.5, &mut rng);
        let tight = OneHeavyHitter::new(Epsilon::new(0.05).unwrap(), 0.5, &mut rng);
        assert!(tight.sample_size() > loose.sample_size());
        let tighter_delta = OneHeavyHitter::new(Epsilon::new(0.5).unwrap(), 1e-6, &mut rng);
        assert!(tighter_delta.sample_size() > loose.sample_size());
    }

    #[test]
    fn space_bounded_by_levels_times_sample() {
        let corpus = planted_heavy_hitters(&[40], 20, 10, 5, 6);
        let mut det = detector(0.2, 9);
        feed(&mut det, &corpus);
        let levels = det.buckets.len();
        // Papers here are single-author: ≤ 3 words per retained sample.
        let bound = levels * (det.sample_size() * 3 + 2) + 2;
        assert!(det.space_words() <= bound, "{} > {bound}", det.space_words());
    }
}
