//! Turnstile H-index: responses can be retracted.
//!
//! Footnote 1 of the paper notes the discussion "can be extended to the
//! setting … when responses can be a mix of positive and negative".
//! The cash-register algorithms almost get there for free — every
//! sketch in Algorithm 6 is a *linear* sketch — except the distinct
//! counter, which is insert-only. This module completes the extension:
//!
//! * the ℓ₀-sampler bank is reused unchanged (deletions supported),
//!   and so are Algorithm 6's batch coalescer and level scan;
//! * `y` comes from the turnstile [`hindex_sketch::L0Norm`] instead of
//!   BJKST;
//! * at decode time, a sampled paper with net count `≤ 0` counts
//!   toward the sampled population `x` (it is a non-zero coordinate if
//!   negative) but never toward a threshold.
//!
//! Semantics: the H-index of the vector `max(V, 0)` — papers whose
//! responses were all retracted (or went net-negative) contribute
//! nothing, and the estimate can *decrease* over time, which no
//! cash-register algorithm allows.

use crate::cash_register::{coalesce, level_scan};
use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer, FRAME_OVERHEAD};
use hindex_common::{Delta, Epsilon, Estimate, ExpGrid, Mergeable, SpaceUsage, TurnstileEstimator};
use hindex_sketch::{L0Norm, L0Sampler, L0SamplerParams};
use rand::Rng;

/// Streaming H-index estimator under turnstile updates
/// (`V[p] += δ`, `δ` possibly negative).
#[derive(Debug, Clone)]
pub struct TurnstileHIndex {
    epsilon: Epsilon,
    grid: ExpGrid,
    samplers: Vec<L0Sampler>,
    norm: L0Norm,
}

impl TurnstileHIndex {
    /// Creates the estimator with the Theorem 14 additive-mode sampler
    /// count (`⌈3ε⁻² ln(2/δ)⌉`); the guarantee is `|ĥ − h*| ≤ ε·D` whp
    /// with `D` the number of non-zero coordinates.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`ε, δ ∈ (0, 1)` make the count a positive float; float-to-int `as` saturates"
    )]
    pub fn new<R: Rng + ?Sized>(epsilon: Epsilon, delta: Delta, rng: &mut R) -> Self {
        let e = epsilon.get();
        let x = (3.0 / (e * e) * (2.0 / delta.get()).ln()).ceil() as usize;
        Self::with_sampler_count(epsilon, delta, x, rng)
    }

    /// Explicit sampler count (experiments/testing).
    #[must_use]
    pub fn with_sampler_count<R: Rng + ?Sized>(
        epsilon: Epsilon,
        delta: Delta,
        x: usize,
        rng: &mut R,
    ) -> Self {
        let params = L0SamplerParams::default();
        Self {
            epsilon,
            grid: ExpGrid::new(epsilon.get()),
            samplers: (0..x.max(1)).map(|_| L0Sampler::new(params, rng)).collect(),
            norm: L0Norm::new(epsilon.get().min(0.25), delta.split(2).get(), rng),
        }
    }

    /// Applies the update `V[index] += delta` (`delta` may be
    /// negative).
    pub fn update(&mut self, index: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        for s in &mut self.samplers {
            s.update(index, delta);
        }
        self.norm.update(index, delta);
    }

    /// Applies a batch of updates; state-identical to looping
    /// [`Self::update`]. Duplicate indices are coalesced first — exact
    /// cancellation in linear sketches makes the net delta equivalent —
    /// so every sampler (and the norm sketch) pays one batched-kernel
    /// pass over the distinct indices instead of one scalar pass per
    /// raw update.
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        let steps = coalesce(updates.iter().map(|&(i, d)| (i, i128::from(d))));
        for s in &mut self.samplers {
            s.update_batch(&steps);
        }
        self.norm.update_batch(&steps);
    }

    /// Number of ℓ₀-samplers in the bank.
    #[must_use]
    pub fn num_samplers(&self) -> usize {
        self.samplers.len()
    }

    /// Current estimate of `h*(max(V, 0))`.
    #[must_use]
    pub(crate) fn estimate(&self) -> u64 {
        // All successful samples, signed: negatives stay in the
        // denominator (they are non-zero coordinates).
        let samples: Vec<(u64, i64)> =
            self.samplers.iter().filter_map(L0Sampler::sample).collect();
        let positives: Vec<u64> =
            samples.iter().filter(|&&(_, v)| v > 0).map(|&(_, v)| v as u64).collect();
        level_scan(
            self.grid,
            self.epsilon.get(),
            samples.len(),
            &positives,
            self.norm.estimate() as f64,
        )
    }
}

/// Payload: `ε`, the sampler bank as nested frames, and the nested
/// ℓ₀-norm sketch. The grid is a pure function of `ε` and is rebuilt
/// rather than stored; `ε` itself is re-validated through
/// [`Epsilon::new`] so a corrupted float cannot smuggle in a NaN grid.
impl Snapshot for TurnstileHIndex {
    const TAG: u8 = 16;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_f64(self.epsilon.get());
        w.put_usize(self.samplers.len());
        for s in &self.samplers {
            w.put_nested(s);
        }
        w.put_nested(&self.norm);
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let epsilon = Epsilon::new(r.get_f64()?)
            .map_err(|_| SnapshotError::Invalid("epsilon outside (0, 1)"))?;
        let count = r.get_count(FRAME_OVERHEAD)?;
        if count == 0 {
            return Err(SnapshotError::Invalid("need at least one sampler"));
        }
        let mut samplers = Vec::with_capacity(count);
        for _ in 0..count {
            samplers.push(r.get_nested::<L0Sampler>()?);
        }
        let norm = r.get_nested::<L0Norm>()?;
        Ok(Self {
            epsilon,
            grid: ExpGrid::new(epsilon.get()),
            samplers,
            norm,
        })
    }
}

/// Merges a same-randomness clone (sharded ingestion). Both the
/// sampler bank and the ℓ₀-norm sketch are linear, so the merged state
/// is bit-identical to ingesting the concatenated update streams —
/// including interleaved retractions landing on different shards.
impl Mergeable for TurnstileHIndex {
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.samplers.len(), other.samplers.len(), "config mismatch");
        for (a, b) in self.samplers.iter_mut().zip(&other.samplers) {
            a.merge(b);
        }
        self.norm.merge(&other.norm);
    }
}

impl SpaceUsage for TurnstileHIndex {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated samplers fit in usize"
    )]
    fn space_words(&self) -> usize {
        self.samplers.iter().map(SpaceUsage::space_words).sum::<usize>()
            + self.norm.space_words()
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated ladders fit in usize"
    )]
    fn scratch_words(&self) -> usize {
        self.samplers.iter().map(SpaceUsage::scratch_words).sum::<usize>()
            + self.norm.scratch_words()
    }
}

impl Estimate for TurnstileHIndex {
    fn estimate(&self) -> u64 {
        Self::estimate(self)
    }
}

/// The trait face of the inherent methods, for generic turnstile
/// plumbing (`hindex-engine`'s sharded ingestion in particular).
impl TurnstileEstimator for TurnstileHIndex {
    fn ingest(&mut self, index: u64, delta: i64) {
        Self::update(self, index, delta);
    }

    fn ingest_batch(&mut self, updates: &[(u64, i64)]) {
        Self::update_batch(self, updates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn estimator(seed: u64) -> TurnstileHIndex {
        TurnstileHIndex::new(
            Epsilon::new(0.25).unwrap(),
            Delta::new(0.1).unwrap(),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(estimator(0).estimate(), 0);
    }

    #[test]
    fn insert_only_matches_cash_register_semantics() {
        // 30 papers with 40 citations each: h = 30, D = 30 → the
        // additive slack ε·D is tight enough to pin the estimate.
        let mut ok = 0;
        for seed in 0..8 {
            let mut est = estimator(seed);
            for p in 0..30u64 {
                est.update(p, 40);
            }
            let got = est.estimate();
            if (got as f64 - 30.0).abs() <= 0.25 * 30.0 {
                ok += 1;
            }
        }
        assert!(ok >= 7, "only {ok}/8 within bounds");
    }

    #[test]
    fn retractions_lower_the_index() {
        let mut ok = 0;
        for seed in 0..8 {
            let mut est = estimator(seed);
            // 40 strong papers...
            for p in 0..40u64 {
                est.update(p, 50);
            }
            let before = est.estimate();
            // ...then 30 of them are fully retracted.
            for p in 0..30u64 {
                est.update(p, -50);
            }
            let after = est.estimate();
            // Truth: h = 40 before, h = 10 after.
            if (before as f64 - 40.0).abs() <= 10.0 && (after as f64 - 10.0).abs() <= 5.0 {
                ok += 1;
            }
        }
        assert!(ok >= 6, "retraction semantics held in only {ok}/8 runs");
    }

    #[test]
    fn net_negative_papers_never_count() {
        for seed in 0..5 {
            let mut est = estimator(seed);
            for p in 0..20u64 {
                est.update(p, 10);
                est.update(p, -25); // net −15
            }
            assert_eq!(est.estimate(), 0, "seed {seed}");
        }
    }

    #[test]
    fn full_cancellation_returns_to_zero() {
        let mut est = estimator(9);
        for p in 0..25u64 {
            est.update(p, 30);
        }
        assert!(est.estimate() > 0);
        for p in 0..25u64 {
            est.update(p, -30);
        }
        assert_eq!(est.estimate(), 0);
    }

    #[test]
    fn update_batch_matches_scalar_updates() {
        let proto = estimator(21);
        let mut scalar = proto.clone();
        let mut batched = proto.clone();
        let updates: Vec<(u64, i64)> = (0..300u64)
            .map(|i| (i % 37, if i % 5 == 0 { -3 } else { 4 }))
            .collect();
        for &(i, d) in &updates {
            scalar.update(i, d);
        }
        batched.update_batch(&updates);
        // Coalescing + batched kernels are state-identical, so the
        // estimates agree exactly, not just statistically.
        assert_eq!(scalar.estimate(), batched.estimate());
    }

    #[test]
    fn scratch_reported_separately_from_space() {
        let est = estimator(22);
        assert!(est.scratch_words() > 0);
        // 2048-word ladder per sampler core: scratch dwarfs none of the
        // paper-bound accounting (space_words must not include it).
        assert!(est.space_words() > 0);
    }

    #[test]
    fn sharded_merge_equals_single_stream() {
        let mut rng = StdRng::seed_from_u64(10);
        let proto = TurnstileHIndex::new(
            Epsilon::new(0.3).unwrap(),
            Delta::new(0.2).unwrap(),
            &mut rng,
        );
        let mut whole = proto.clone();
        let mut a = proto.clone();
        let mut b = proto.clone();
        for p in 0..30u64 {
            whole.update(p, 20);
            if p % 2 == 0 {
                a.update(p, 20);
            } else {
                b.update(p, 20);
            }
        }
        // Retraction lands on the "wrong" shard.
        whole.update(0, -20);
        b.update(0, -20);
        a.merge(&b);
        assert_eq!(a.estimate(), whole.estimate());
    }
}
