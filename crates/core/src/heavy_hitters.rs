//! Algorithm 8 / Theorem 18: all heavy hitters in H-index.
//!
//! Goal: from a stream of papers, output every author whose H-index is
//! at least an ε fraction of the total H-impact
//! `h*(S) = Σ_a h*(a)`, with a `(1±ε)` estimate of each one's H-index
//! — without tracking any per-author state.
//!
//! Mechanism (group testing): `x = ⌈log₂(1/(εδ))⌉` independent rows,
//! each hashing authors pairwise-independently into `ℓ = ⌈2/ε²⌉`
//! buckets; a paper is routed, per row, to the bucket of **each** of
//! its authors. Every bucket runs Algorithm 7
//! ([`crate::OneHeavyHitter`]). With `ℓ = 2/ε²`, a heavy author's
//! bucket receives at most `ε·h*(aᵢ)` of foreign H-impact in
//! expectation-over-hash with probability `≥ 1/2` per row
//! (Markov), so across rows every heavy author is isolated and
//! detected somewhere whp; light authors that get certified by a lucky
//! bucket are removed by the final threshold filter.
//!
//! The threshold: the paper states heaviness against `h*(S)`, which no
//! small-space algorithm knows exactly. [`HeavyHitters::total_impact_estimate`]
//! returns `max_rows Σ_buckets ĥ(bucket)` — within the bucket noise it
//! sandwiches `h*(S)` (bucket H-indices are subadditive over disjoint
//! paper unions and at least the max member) — and
//! [`HeavyHitters::decode`] filters on `ε` times that by default, with
//! an explicit-threshold variant for experiments.

use crate::one_heavy_hitter::OneHeavyHitter;
use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer, FRAME_OVERHEAD};
use hindex_common::{Delta, Epsilon, EstimatorParams, Mergeable, SpaceUsage};
use hindex_hashing::{Hasher64, PairwiseHash};
use hindex_stream::{AuthorId, Paper};
use rand::Rng;
use std::collections::HashMap;

/// Configuration for [`HeavyHitters`].
#[derive(Debug, Clone, Copy)]
pub struct HeavyHittersParams {
    /// Heaviness / accuracy parameter `ε`.
    pub epsilon: Epsilon,
    /// Failure probability `δ`.
    pub delta: Delta,
    /// Override the bucket count `ℓ = ⌈2/ε²⌉` (experiments only).
    pub buckets_override: Option<usize>,
    /// Override the row count `x = ⌈log₂(1/(εδ))⌉` (experiments only).
    pub rows_override: Option<usize>,
}

impl HeavyHittersParams {
    /// Standard parameters.
    #[must_use]
    pub fn new(epsilon: Epsilon, delta: Delta) -> Self {
        Self {
            epsilon,
            delta,
            buckets_override: None,
            rows_override: None,
        }
    }

    /// Buckets per row.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets_override
            .unwrap_or_else(|| (2.0 / self.epsilon.get().powi(2)).ceil() as usize)
            .max(1)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows_override
            .unwrap_or_else(|| {
                (1.0 / (self.epsilon.get() * self.delta.get()))
                    .log2()
                    .ceil()
                    .max(1.0) as usize
            })
            .max(1)
    }
}

/// One detected heavy hitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyHitterCandidate {
    /// The author.
    pub author: AuthorId,
    /// Median (over certifying buckets) estimate of the author's
    /// H-index.
    pub h_estimate: u64,
    /// How many of the rows certified this author.
    pub rows_found: usize,
}

/// Streaming heavy-hitters-in-H-index sketch (Algorithm 8).
///
/// ```
/// use hindex_common::{Delta, Epsilon};
/// use hindex_core::{HeavyHitters, HeavyHittersParams};
/// use hindex_stream::{AuthorId, Paper};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let params = HeavyHittersParams::new(
///     Epsilon::new(0.25).unwrap(),
///     Delta::new(0.1).unwrap(),
/// );
/// let mut hh = HeavyHitters::new(params, &mut StdRng::seed_from_u64(1));
/// // Author 7 dominates: 40 papers with 60 citations each.
/// for i in 0..40 {
///     hh.push(&Paper::solo(i, 7, 60));
/// }
/// for i in 40..60 {
///     hh.push(&Paper::solo(i, i, 1)); // light noise authors
/// }
/// let out = hh.decode();
/// assert_eq!(out[0].author, AuthorId(7));
/// ```
#[derive(Debug, Clone)]
pub struct HeavyHitters {
    params: HeavyHittersParams,
    hashes: Vec<PairwiseHash>,
    /// `detectors[row * buckets + bucket]`.
    detectors: Vec<OneHeavyHitter>,
    /// Exact total number of responses (one word; the intro's scale
    /// `R`).
    total_responses: u64,
    papers_seen: u64,
}

impl HeavyHitters {
    /// Creates the sketch; all randomness (hashes, reservoirs) comes
    /// from `rng`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(params: HeavyHittersParams, rng: &mut R) -> Self {
        let rows = params.rows();
        let buckets = params.buckets();
        let hashes = (0..rows).map(|_| PairwiseHash::new(rng)).collect();
        // Per-bucket δ gets a union-bound split across all buckets.
        let bucket_delta = (params.delta.get() / (rows * buckets) as f64).max(1e-9);
        let detectors = (0..rows * buckets)
            .map(|_| OneHeavyHitter::new(params.epsilon, bucket_delta, rng))
            .collect();
        Self {
            params,
            hashes,
            detectors,
            total_responses: 0,
            papers_seen: 0,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn params(&self) -> HeavyHittersParams {
        self.params
    }

    /// Feeds one paper tuple: per row, the paper goes to the bucket of
    /// each of its authors.
    pub fn push(&mut self, paper: &Paper) {
        self.papers_seen += 1;
        self.total_responses += paper.citations;
        let buckets = self.params.buckets() as u64;
        for (row, hash) in self.hashes.iter().enumerate() {
            for &author in &paper.authors {
                let b = hash.hash_to_range(author.0, buckets) as usize;
                self.detectors[row * self.params.buckets() + b]
                    .push_parts(&paper.authors, paper.citations);
            }
        }
    }

    /// Exact total responses `R` seen (the intro's heaviness scale).
    #[must_use]
    pub fn total_responses(&self) -> u64 {
        self.total_responses
    }

    /// Sketch-side estimate of the total H-impact `h*(S)`: the maximum
    /// over rows of the sum of bucket H-index estimates.
    #[must_use]
    pub fn total_impact_estimate(&self) -> u64 {
        let buckets = self.params.buckets();
        debug_assert!(self.detectors.len() == self.params.rows() * buckets);
        (0..self.params.rows())
            .map(|row| {
                self.detectors[row * buckets..(row + 1) * buckets]
                    .iter()
                    .map(|d| d.combined_h_estimate().0)
                    .sum::<u64>()
            })
            .max()
            // 0 is the honest sentinel for "no rows": with no detector
            // mass the impact estimate is zero, matching the empty
            // sketch. The branch is unreachable through the public API —
            // `rows()` clamps to ≥ 1 even under `rows_override: Some(0)`
            // (pinned by `zero_geometry_overrides_are_clamped`).
            .unwrap_or(0)
    }

    /// Decodes with the default threshold `ε · total_impact_estimate()`.
    #[must_use]
    pub fn decode(&self) -> Vec<HeavyHitterCandidate> {
        let bar = (self.params.epsilon.get() * self.total_impact_estimate() as f64) as u64;
        self.decode_with_threshold(bar)
    }

    /// Decodes, keeping only candidates whose estimated H-index is at
    /// least `threshold`. Returns at most `⌈1/ε⌉` candidates, sorted by
    /// descending estimate.
    #[must_use]
    pub fn decode_with_threshold(&self, threshold: u64) -> Vec<HeavyHitterCandidate> {
        let buckets = self.params.buckets();
        let mut per_author: HashMap<AuthorId, Vec<(usize, u64)>> = HashMap::new();
        for (idx, det) in self.detectors.iter().enumerate() {
            for (author, h_estimate) in det.decode_candidates() {
                per_author.entry(author).or_default().push((idx / buckets, h_estimate));
            }
        }
        let mut out: Vec<HeavyHitterCandidate> = per_author
            .into_iter()
            .map(|(author, mut found)| {
                let rows_found = {
                    let mut rows: Vec<usize> = found.iter().map(|&(r, _)| r).collect();
                    rows.sort_unstable();
                    rows.dedup();
                    rows.len()
                };
                found.sort_unstable_by_key(|&(_, h)| h);
                let h_estimate = found[found.len() / 2].1;
                HeavyHitterCandidate {
                    author,
                    h_estimate,
                    rows_found,
                }
            })
            .filter(|c| c.h_estimate >= threshold)
            .collect();
        out.sort_by(|a, b| {
            b.h_estimate
                .cmp(&a.h_estimate)
                .then(b.rows_found.cmp(&a.rows_found))
                .then(a.author.0.cmp(&b.author.0))
        });
        let cap = (1.0 / self.params.epsilon.get()).ceil() as usize;
        out.truncate(cap.max(1));
        out
    }
}

/// Payload: the parameter record (`ε`, `δ`, the two optional geometry
/// overrides), the exact counters, the per-row hashes, and the
/// detector grid. Decode re-derives the geometry from the restored
/// parameters and insists the hash and detector counts match it —
/// [`HeavyHitters::push`] indexes `detectors[row · buckets + b]`
/// unchecked, so a mismatched grid must never be constructed.
impl Snapshot for HeavyHitters {
    const TAG: u8 = 18;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_f64(self.params.epsilon.get());
        w.put_f64(self.params.delta.get());
        for over in [self.params.buckets_override, self.params.rows_override] {
            match over {
                Some(v) => {
                    w.put_u8(1);
                    w.put_usize(v);
                }
                None => w.put_u8(0),
            }
        }
        w.put_u64(self.total_responses);
        w.put_u64(self.papers_seen);
        w.put_usize(self.hashes.len());
        for h in &self.hashes {
            w.put_nested(h);
        }
        for d in &self.detectors {
            w.put_nested(d);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let epsilon = Epsilon::new(r.get_f64()?)
            .map_err(|_| SnapshotError::Invalid("epsilon outside (0, 1)"))?;
        let delta = Delta::new(r.get_f64()?)
            .map_err(|_| SnapshotError::Invalid("delta outside (0, 1)"))?;
        let mut overrides = [None, None];
        for slot in &mut overrides {
            if r.get_u8()? != 0 {
                *slot = Some(r.get_usize()?);
            }
        }
        let params = HeavyHittersParams {
            epsilon,
            delta,
            buckets_override: overrides[0],
            rows_override: overrides[1],
        };
        let total_responses = r.get_u64()?;
        let papers_seen = r.get_u64()?;
        let rows = r.get_count(FRAME_OVERHEAD)?;
        if rows != params.rows() {
            return Err(SnapshotError::Invalid("hash count does not match row count"));
        }
        let mut hashes = Vec::with_capacity(rows);
        for _ in 0..rows {
            hashes.push(r.get_nested::<PairwiseHash>()?);
        }
        let cells = rows
            .checked_mul(params.buckets())
            .ok_or(SnapshotError::Invalid("detector grid overflows"))?;
        if cells > r.remaining() / FRAME_OVERHEAD {
            return Err(SnapshotError::Invalid("detector grid larger than payload"));
        }
        let mut detectors = Vec::with_capacity(cells);
        for _ in 0..cells {
            detectors.push(r.get_nested::<OneHeavyHitter>()?);
        }
        Ok(Self {
            params,
            hashes,
            detectors,
            total_responses,
            papers_seen,
        })
    }
}

impl EstimatorParams for HeavyHittersParams {
    type Output = HeavyHitters;

    fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> HeavyHitters {
        HeavyHitters::new(*self, rng)
    }
}

/// Merges a sketch fed a disjoint shard of the paper stream. Both
/// operands must come from the same seeded prototype (same hash
/// functions — asserted), so a paper routes to the same `(row, bucket)`
/// cell on either side and cells merge pairwise via
/// [`OneHeavyHitter`]'s merge. The embedded histograms combine
/// exactly; the reservoir samples combine distributionally (see
/// [`Reservoir::merge_with`](hindex_sketch::Reservoir::merge_with)),
/// so decode output matches single-stream ingestion in distribution.
impl Mergeable for HeavyHitters {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.hashes, other.hashes,
            "sketches must share hash randomness (clone one prototype)"
        );
        assert_eq!(self.detectors.len(), other.detectors.len(), "geometry mismatch");
        for (a, b) in self.detectors.iter_mut().zip(&other.detectors) {
            a.merge(b);
        }
        self.total_responses += other.total_responses;
        self.papers_seen += other.papers_seen;
    }
}

impl SpaceUsage for HeavyHitters {
    fn space_words(&self) -> usize {
        let det_words: usize = self.detectors.iter().map(SpaceUsage::space_words).sum();
        det_words + 2 * self.hashes.len() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_stream::generator::planted_heavy_hitters;
    use hindex_stream::Corpus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sketch(e: f64, d: f64, seed: u64) -> HeavyHitters {
        let mut rng = StdRng::seed_from_u64(seed);
        HeavyHitters::new(
            HeavyHittersParams::new(Epsilon::new(e).unwrap(), Delta::new(d).unwrap()),
            &mut rng,
        )
    }

    fn feed(hh: &mut HeavyHitters, corpus: &Corpus) {
        for p in corpus.papers() {
            hh.push(p);
        }
    }

    #[test]
    fn geometry_matches_paper() {
        let p = HeavyHittersParams::new(
            Epsilon::new(0.25).unwrap(),
            Delta::new(0.05).unwrap(),
        );
        assert_eq!(p.buckets(), 32); // 2 / 0.0625
        assert_eq!(p.rows(), 7); // ⌈log₂(80)⌉
    }

    #[test]
    fn empty_stream_decodes_empty() {
        let hh = sketch(0.25, 0.1, 0);
        assert!(hh.decode().is_empty());
        assert_eq!(hh.total_impact_estimate(), 0);
    }

    #[test]
    fn single_heavy_author_found() {
        // Author 0 with h = 50 over 60 light authors (h ≤ 2 each):
        // total impact ≈ 50 + 120·small — author 0 is ε-heavy for
        // ε = 0.25.
        let corpus = planted_heavy_hitters(&[50], 60, 3, 2, 1);
        let truth = corpus.ground_truth();
        let h0 = truth.per_author[&AuthorId(0)];
        assert_eq!(h0, 50);
        let mut found = 0;
        for seed in 0..10 {
            let mut hh = sketch(0.25, 0.1, seed);
            feed(&mut hh, &corpus);
            let out = hh.decode();
            if let Some(c) = out.iter().find(|c| c.author == AuthorId(0)) {
                assert!(
                    (c.h_estimate as f64) >= 0.7 * h0 as f64
                        && (c.h_estimate as f64) <= 1.3 * h0 as f64,
                    "seed {seed}: estimate {} vs {h0}",
                    c.h_estimate
                );
                found += 1;
            }
        }
        assert!(found >= 9, "found in only {found}/10 runs");
    }

    #[test]
    fn multiple_heavy_authors_found() {
        let heavy = [60u64, 50, 45];
        let corpus = planted_heavy_hitters(&heavy, 40, 3, 2, 2);
        let truth = corpus.ground_truth();
        // Every ground-truth ε-heavy author (Theorem 18's set) must be
        // recovered.
        let expected = truth.heavy_hitters(0.2);
        assert_eq!(expected.len(), 3, "test premise: all three are ε-heavy");
        let mut all_found = 0;
        for seed in 0..10 {
            let mut hh = sketch(0.2, 0.1, seed);
            feed(&mut hh, &corpus);
            let out = hh.decode();
            let ok = expected
                .iter()
                .all(|&(a, _)| out.iter().any(|c| c.author == a));
            if ok {
                all_found += 1;
            }
        }
        assert!(all_found >= 8, "all three found in only {all_found}/10 runs");
    }

    #[test]
    fn light_authors_not_reported() {
        let corpus = planted_heavy_hitters(&[80], 100, 4, 3, 3);
        for seed in 0..5 {
            let mut hh = sketch(0.25, 0.1, seed);
            feed(&mut hh, &corpus);
            for c in hh.decode() {
                assert_eq!(c.author, AuthorId(0), "seed {seed}: spurious {c:?}");
            }
        }
    }

    #[test]
    fn impact_estimate_in_sane_range() {
        let corpus = planted_heavy_hitters(&[50, 30], 50, 3, 2, 4);
        let truth = corpus.ground_truth().total_h_impact;
        let mut hh = sketch(0.25, 0.1, 5);
        feed(&mut hh, &corpus);
        let est = hh.total_impact_estimate();
        assert!(
            est >= truth / 3 && est <= truth * 2,
            "estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn total_responses_exact() {
        let corpus = planted_heavy_hitters(&[20], 10, 2, 5, 6);
        let mut hh = sketch(0.3, 0.1, 7);
        feed(&mut hh, &corpus);
        assert_eq!(
            hh.total_responses(),
            corpus.ground_truth().total_citations
        );
    }

    #[test]
    fn output_capped_at_one_over_eps() {
        let heavy: Vec<u64> = vec![30; 12];
        let corpus = planted_heavy_hitters(&heavy, 0, 0, 0, 8);
        let mut hh = sketch(0.25, 0.1, 9);
        feed(&mut hh, &corpus);
        assert!(hh.decode_with_threshold(0).len() <= 4);
    }

    #[test]
    fn explicit_threshold_filters() {
        let corpus = planted_heavy_hitters(&[60, 10], 0, 0, 0, 10);
        let mut hh = sketch(0.2, 0.1, 11);
        feed(&mut hh, &corpus);
        let strict = hh.decode_with_threshold(40);
        assert!(strict.iter().all(|c| c.h_estimate >= 40));
    }

    #[test]
    fn space_scales_with_geometry() {
        use hindex_common::SpaceUsage;
        let small = sketch(0.5, 0.5, 12);
        let big = sketch(0.1, 0.01, 13);
        assert!(big.space_words() > small.space_words());
    }

    /// Boundary regression: as ε and δ approach their open upper bound
    /// the float→usize geometry casts shrink toward zero; the `.max(1)`
    /// clamps must keep every dimension at least one so `new`, `push`,
    /// and the decoders stay well-defined.
    #[test]
    fn extreme_epsilon_delta_geometry_stays_positive() {
        let p = HeavyHittersParams::new(
            Epsilon::new(0.999_999).unwrap(),
            Delta::new(0.999_999).unwrap(),
        );
        // 2/ε² ≈ 2.0 → 2 buckets; log₂(1/(εδ)) ≈ 0 → clamped to 1 row.
        assert!(p.buckets() >= 1, "buckets collapsed to zero");
        assert_eq!(p.rows(), 1, "rows must clamp to one");

        let mut hh = HeavyHitters::new(p, &mut StdRng::seed_from_u64(0));
        hh.push(&hindex_stream::Paper::solo(1, 7, 50));
        // cap = ⌈1/ε⌉ = 2 here; the `.max(1)` guard matters when the
        // ceil lands on 1 exactly — decode must still return candidates.
        let out = hh.decode_with_threshold(0);
        assert!(out.len() <= 2);
        assert!(!out.is_empty(), "sole author lost at extreme ε");
    }

    #[test]
    fn zero_geometry_overrides_are_clamped() {
        let mut p = HeavyHittersParams::new(
            Epsilon::new(0.25).unwrap(),
            Delta::new(0.1).unwrap(),
        );
        p.buckets_override = Some(0);
        p.rows_override = Some(0);
        assert_eq!(p.buckets(), 1);
        assert_eq!(p.rows(), 1);
        // A 1×1 grid is a single Algorithm 7 detector; it must ingest
        // and decode without indexing past the (single-cell) grid.
        let mut hh = HeavyHitters::new(p, &mut StdRng::seed_from_u64(1));
        for i in 0..20 {
            hh.push(&hindex_stream::Paper::solo(i, 3, 10));
        }
        let out = hh.decode_with_threshold(0);
        assert!(out.iter().any(|c| c.author == AuthorId(3)), "{out:?}");
    }

    /// Tiny streams: 0, 1, and 2 papers through standard geometry. The
    /// `unwrap_or(0)` sentinels and the reservoir fill laws must hold
    /// at sizes far below the sketch's design scale.
    #[test]
    fn tiny_streams_estimate_without_panicking() {
        let hh = sketch(0.25, 0.1, 3);
        assert_eq!(hh.total_impact_estimate(), 0);
        assert!(hh.decode().is_empty());

        let mut hh = sketch(0.25, 0.1, 3);
        hh.push(&hindex_stream::Paper::solo(0, 1, 4));
        assert!(hh.total_impact_estimate() <= 4);
        assert_eq!(hh.total_responses(), 4);

        let mut hh = sketch(0.25, 0.1, 3);
        hh.push(&hindex_stream::Paper::solo(0, 1, 4));
        hh.push(&hindex_stream::Paper::solo(1, 1, 6));
        let out = hh.decode_with_threshold(0);
        assert!(out.iter().any(|c| c.author == AuthorId(1)), "{out:?}");
    }
}
