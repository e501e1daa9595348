//! Algorithms 5 + 6 / Theorem 14: the cash-register model.
//!
//! Here the stream is *unaggregated*: updates `(p, z)` meaning paper
//! `p` gained `z` citations, in arbitrary interleaving. No counter per
//! paper can be afforded, so the algorithm samples:
//!
//! * `x` independent [ℓ₀-samplers](hindex_sketch::L0Sampler) each
//!   deliver, at query time, a (near-)uniform random *cited paper*
//!   together with its **exact** final citation count (sparse recovery
//!   gives values, which step 4's `V[j] ≥ (1+ε)ⁱ` tests need);
//! * a [BJKST](hindex_sketch::Bjkst) sketch delivers `y`, a `(1±ε)`
//!   estimate of the number of distinct cited papers (the paper's
//!   step 2, citing \[10\]).
//!
//! For each level `i`, `r_i = |{j ∈ X : V[j] ≥ (1+ε)ⁱ}| · y / x` scales
//! the sampled-support fraction back to absolute counts; the estimate is
//! the largest `(1+ε)ⁱ` with `r_i ≥ (1+ε)ⁱ(1−ε)`.
//!
//! Sampler count (Theorem 14):
//!
//! * **additive** mode: `x = ⌈3ε⁻² ln(2/δ)⌉` gives
//!   `|ĥ − h*| ≤ ε·D` whp, where `D` is the number of distinct cited
//!   papers (`D ≤ n`, so this is at least as strong as the paper's
//!   `ε·n` statement);
//! * **multiplicative** mode: given a promised lower bound `h* ≥ β` and
//!   an upper bound `D ≤ D_max`, `x = ⌈3ε⁻² ln(2/δ) · D_max/β⌉` makes
//!   the per-level Chernoff argument relative.

use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer, FRAME_OVERHEAD};
use hindex_common::{
    BankCounters, CashRegisterEstimator, Delta, Epsilon, Estimate, ExpGrid, Mergeable, SpaceUsage,
};
use hindex_sketch::distinct::DistinctCounter;
use hindex_sketch::{Bjkst, L0Sampler, L0SamplerParams};
use rand::Rng;
use std::sync::Arc;

/// Which guarantee the sampler count is sized for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CashRegisterParams {
    /// Additive error `ε·D` with probability `1 − δ`.
    Additive {
        /// Accuracy `ε`.
        epsilon: Epsilon,
        /// Failure probability `δ`.
        delta: Delta,
    },
    /// Multiplicative error `ε·h*` with probability `1 − δ`, valid when
    /// `h* ≥ beta` and the number of distinct cited papers stays below
    /// `distinct_bound`.
    Multiplicative {
        /// Accuracy `ε`.
        epsilon: Epsilon,
        /// Failure probability `δ`.
        delta: Delta,
        /// Promised lower bound `β ≤ h*`.
        beta: u64,
        /// Upper bound on distinct cited papers.
        distinct_bound: u64,
    },
}

impl CashRegisterParams {
    /// Accuracy parameter.
    #[must_use]
    pub(crate) fn epsilon(&self) -> Epsilon {
        match *self {
            CashRegisterParams::Additive { epsilon, .. }
            | CashRegisterParams::Multiplicative { epsilon, .. } => epsilon,
        }
    }

    /// Failure probability.
    #[must_use]
    pub(crate) fn delta(&self) -> Delta {
        match *self {
            CashRegisterParams::Additive { delta, .. }
            | CashRegisterParams::Multiplicative { delta, .. } => delta,
        }
    }

    /// The number of ℓ₀-sampler instances Theorem 14 asks for.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`ε, δ ∈ (0, 1)` and `scale ≥ 1` make the count a positive float; float-to-int `as` saturates"
    )]
    pub fn num_samplers(&self) -> usize {
        match *self {
            CashRegisterParams::Additive { epsilon, delta } => {
                let e = epsilon.get();
                (3.0 / (e * e) * (2.0 / delta.get()).ln()).ceil() as usize
            }
            CashRegisterParams::Multiplicative {
                epsilon,
                delta,
                beta,
                distinct_bound,
            } => {
                assert!(beta >= 1, "beta must be positive");
                let e = epsilon.get();
                let scale = (distinct_bound.max(1) as f64 / beta as f64).max(1.0);
                (3.0 / (e * e) * (2.0 / delta.get()).ln() * scale).ceil() as usize
            }
        }
    }
}

/// Streaming H-index estimator for cash-register update streams
/// (Algorithm 6 with the sampler counts of Theorem 14).
#[derive(Debug, Clone)]
pub struct CashRegisterHIndex {
    params: CashRegisterParams,
    grid: ExpGrid,
    samplers: Vec<L0Sampler>,
    distinct: Bjkst,
    /// Largest value a single update has carried.
    max_seen: u64,
    /// Bank-batching telemetry — operational counters, not sketch
    /// state (excluded from snapshots and digests; summed on merge).
    counters: BankCounters,
}

impl CashRegisterHIndex {
    /// Creates the estimator; draws all sketch randomness from `rng`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(params: CashRegisterParams, rng: &mut R) -> Self {
        Self::build(params, params.num_samplers(), rng)
    }

    /// Creates the estimator with an explicit sampler count instead of
    /// the Theorem 14 formula — used by the E5 experiment to sweep the
    /// space/accuracy trade-off.
    #[must_use]
    pub fn with_sampler_count<R: Rng + ?Sized>(
        params: CashRegisterParams,
        x: usize,
        rng: &mut R,
    ) -> Self {
        Self::build(params, x.max(1), rng)
    }

    fn build<R: Rng + ?Sized>(params: CashRegisterParams, x: usize, rng: &mut R) -> Self {
        // Each individual sampler may fail with constant probability;
        // the Chernoff estimate over x samplers absorbs that, so default
        // per-sampler parameters suffice.
        let sampler_params = L0SamplerParams::default();
        // One fingerprint ladder serves the whole bank, so the bank
        // holds one power table instead of x. `with_shared_ladder`
        // burns the point draw `new` would make, so the bank consumes
        // the same RNG stream as independent per-sampler construction.
        let mut samplers = Vec::with_capacity(x);
        let first = L0Sampler::new(sampler_params, rng);
        let ladder = Arc::clone(first.ladder_arc());
        samplers.push(first);
        for _ in 1..x {
            samplers.push(L0Sampler::with_shared_ladder(
                sampler_params,
                Arc::clone(&ladder),
                rng,
            ));
        }
        let distinct = Bjkst::new(
            params.epsilon().get().min(0.25),
            params.delta().split(2).get(),
            rng,
        );
        Self {
            params,
            grid: ExpGrid::new(params.epsilon().get()),
            samplers,
            distinct,
            max_seen: 0,
            counters: BankCounters::default(),
        }
    }

    /// Number of ℓ₀-sampler instances in use.
    #[must_use]
    pub fn num_samplers(&self) -> usize {
        self.samplers.len()
    }

    /// The sampled `(paper, exact count)` pairs currently recoverable —
    /// exposed for experiments that analyze the sampler ensemble.
    #[must_use]
    pub fn draw_samples(&self) -> Vec<(u64, u64)> {
        self.samplers
            .iter()
            .filter_map(|s| s.sample())
            .filter(|&(_, v)| v > 0)
            .map(|(i, v)| (i, v as u64))
            .collect()
    }
}

impl CashRegisterParams {
    /// Serialises the mode tag and numeric fields (snapshot helper).
    fn write_into_payload(&self, w: &mut Writer<'_>) {
        match *self {
            CashRegisterParams::Additive { epsilon, delta } => {
                w.put_u8(0);
                w.put_f64(epsilon.get());
                w.put_f64(delta.get());
            }
            CashRegisterParams::Multiplicative { epsilon, delta, beta, distinct_bound } => {
                w.put_u8(1);
                w.put_f64(epsilon.get());
                w.put_f64(delta.get());
                w.put_u64(beta);
                w.put_u64(distinct_bound);
            }
        }
    }

    /// Decodes what [`Self::write_into_payload`] wrote, re-validating
    /// every constructor invariant (`ε`, `δ` in range, `β ≥ 1`).
    fn read_from_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mode = r.get_u8()?;
        let epsilon = Epsilon::new(r.get_f64()?)
            .map_err(|_| SnapshotError::Invalid("epsilon outside (0, 1)"))?;
        let delta = Delta::new(r.get_f64()?)
            .map_err(|_| SnapshotError::Invalid("delta outside (0, 1)"))?;
        match mode {
            0 => Ok(CashRegisterParams::Additive { epsilon, delta }),
            1 => {
                let beta = r.get_u64()?;
                if beta == 0 {
                    return Err(SnapshotError::Invalid("beta must be positive"));
                }
                let distinct_bound = r.get_u64()?;
                Ok(CashRegisterParams::Multiplicative { epsilon, delta, beta, distinct_bound })
            }
            _ => Err(SnapshotError::Invalid("unknown cash-register mode")),
        }
    }
}

/// Payload: the parameter record (mode tag + numeric fields), the
/// sampler bank, the BJKST distinct sketch, and `max_seen`. The grid
/// is rebuilt from the re-validated `ε`.
impl Snapshot for CashRegisterHIndex {
    const TAG: u8 = 15;

    fn write_payload(&self, w: &mut Writer<'_>) {
        self.params.write_into_payload(w);
        w.put_usize(self.samplers.len());
        for s in &self.samplers {
            w.put_nested(s);
        }
        w.put_nested(&self.distinct);
        w.put_u64(self.max_seen);
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`samplers.first()` matched, so `samplers[1..]` is in bounds"
    )]
    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let params = CashRegisterParams::read_from_payload(r)?;
        let count = r.get_count(FRAME_OVERHEAD)?;
        if count == 0 {
            return Err(SnapshotError::Invalid("need at least one sampler"));
        }
        let mut samplers = Vec::with_capacity(count);
        for _ in 0..count {
            samplers.push(r.get_nested::<L0Sampler>()?);
        }
        // Re-establish bank-wide ladder sharing when the snapshot's
        // samplers carry one fingerprint point (anything this version
        // writes). Older snapshots with per-sampler points decode
        // unchanged and keep one ladder per sampler.
        if let Some(first) = samplers.first() {
            let ladder = Arc::clone(first.ladder_arc());
            if samplers[1..]
                .iter()
                .all(|s| s.ladder_arc().same_base(&ladder))
            {
                for s in &mut samplers[1..] {
                    let shared = s.share_ladder(&ladder);
                    debug_assert!(shared);
                }
            }
        }
        let distinct = r.get_nested::<Bjkst>()?;
        let max_seen = r.get_u64()?;
        Ok(Self {
            params,
            grid: ExpGrid::new(params.epsilon().get()),
            samplers,
            distinct,
            max_seen,
            counters: BankCounters::default(),
        })
    }
}

/// Merges another estimator that shares this one's randomness (a
/// pre-update `clone` — the sketches are linear, so the merge equals
/// processing the concatenated update streams). This is the
/// sharded-firehose ingestion pattern `hindex-engine` builds on: clone
/// one estimator per shard, merge at query time.
impl Mergeable for CashRegisterHIndex {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.samplers.len(),
            other.samplers.len(),
            "estimators must share configuration"
        );
        for (a, b) in self.samplers.iter_mut().zip(&other.samplers) {
            a.merge(b);
        }
        self.distinct.merge(&other.distinct);
        self.max_seen = self.max_seen.max(other.max_seen);
        // Telemetry sums across shards so a merged estimator reports
        // the whole run's bank totals.
        self.counters.absorb(&other.counters);
    }
}

impl Estimate for CashRegisterHIndex {
    fn estimate(&self) -> u64 {
        let values: Vec<u64> = self.draw_samples().into_iter().map(|(_, v)| v).collect();
        level_scan(
            self.grid,
            self.params.epsilon().get(),
            values.len(),
            &values,
            self.distinct.estimate() as f64,
        )
    }
}

/// Coalesces a batch of sampler-bank updates: sorts by index, sums
/// each index's deltas in `i128` (which cannot overflow before ~2⁶⁴
/// updates), and splits every non-zero total into `i64` steps by
/// clamping, so a total beyond either `i64` extreme peels off in
/// extreme-sized steps. The steps of one index are adjacent.
///
/// Every ℓ₀-sampler is linear in the delta (`V[i] += z₁; V[i] += z₂`
/// ≡ `V[i] += z₁+z₂`), so feeding a bank the steps is state-identical
/// to feeding it the raw updates one by one, while each sampler is
/// touched once per distinct index instead of once per update.
#[expect(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "`chunk_by` yields non-empty runs; the clamp makes the cast exact and moves `rest` toward 0 by `step`"
)]
pub(crate) fn coalesce(updates: impl IntoIterator<Item = (u64, i128)>) -> Vec<(u64, i64)> {
    let mut sorted: Vec<(u64, i128)> = updates.into_iter().filter(|&(_, z)| z != 0).collect();
    sorted.sort_unstable_by_key(|&(i, _)| i);
    let mut steps = Vec::with_capacity(sorted.len());
    for run in sorted.chunk_by(|a, b| a.0 == b.0) {
        let mut rest: i128 = run.iter().map(|&(_, z)| z).sum();
        while rest != 0 {
            let step = rest.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
            steps.push((run[0].0, step));
            rest -= i128::from(step);
        }
    }
    steps
}

/// Algorithm 6's level scan: with `drawn` samples drawn and
/// `positives` the positive values among them, the estimate is the
/// largest grid threshold `tᵢ` with `r_i = |{v ≥ tᵢ}| · y / drawn ≥
/// (1+ε)ⁱ(1−ε)`. A sample that is not positive counts among those
/// drawn (it is a non-zero coordinate) but never toward a threshold.
/// `0` when nothing was drawn.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "positives are `i64` sample values, so the saturating grid thresholds pass `max_count` long before `level` nears u32::MAX"
)]
pub(crate) fn level_scan(
    grid: ExpGrid,
    epsilon: f64,
    drawn: usize,
    positives: &[u64],
    y: f64,
) -> u64 {
    if drawn == 0 {
        return 0;
    }
    let x = drawn as f64;
    // Scan levels from 0 while thresholds stay below the largest
    // sampled count; track the best qualifying threshold.
    let max_count = positives.iter().copied().max().unwrap_or(0);
    let mut best = 0u64;
    let mut level = 0u32;
    loop {
        let t_int = grid.int_threshold(level);
        if t_int > max_count {
            break;
        }
        let hits = positives.iter().filter(|&&v| v >= t_int).count() as f64;
        let r = hits * y / x;
        if r >= grid.threshold(level) * (1.0 - epsilon) {
            best = t_int;
        }
        level += 1;
    }
    best
}

impl CashRegisterEstimator for CashRegisterHIndex {
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_wrap,
        reason = "`step = min(rest, i64::MAX)`, so the cast is exact and `rest` never wraps"
    )]
    fn ingest(&mut self, index: u64, delta: u64) {
        if delta == 0 {
            return;
        }
        // The turnstile substrate is signed: a delta above `i64::MAX`
        // would sign-wrap under a bare `as i64`. Split it into signed
        // steps instead — every sampler is linear in the delta
        // (`V[i] += z₁; V[i] += z₂` ≡ `V[i] += z₁+z₂`), so the split
        // is state-exact.
        let mut rest = delta;
        while rest > 0 {
            let step = rest.min(i64::MAX as u64) as i64;
            rest -= step as u64;
            for s in &mut self.samplers {
                s.update(index, step);
            }
        }
        self.distinct.observe(index);
        self.max_seen = self.max_seen.max(delta);
    }

    /// Batch path: sums each index's deltas (the coalescer shared with
    /// the turnstile bank), then feeds the resulting `i64` steps to
    /// every sampler's batched update.
    ///
    /// Every structure inside is either linear in the deltas (the
    /// sparse-recovery counters behind each ℓ₀-sampler) or idempotent
    /// per index (BJKST's `observe`), so the result is state-identical
    /// to looping [`Self::ingest`]. Real citation batches repeat hot
    /// papers heavily; collapsing them means each of the `x` samplers
    /// is touched once per *distinct* index instead of once per update.
    #[expect(clippy::indexing_slicing, reason = "`chunk_by` yields non-empty runs")]
    fn ingest_batch(&mut self, updates: &[(u64, u64)]) {
        // `max_seen` tracks the largest *single-update* delta, so take
        // it from the raw deltas before coalescing sums them.
        self.counters.raw_updates = self.counters.raw_updates.saturating_add(updates.len() as u64);
        for &(_, z) in updates {
            self.max_seen = self.max_seen.max(z);
        }
        let steps = coalesce(updates.iter().map(|&(i, z)| (i, i128::from(z))));
        self.counters.tile_items = self.counters.tile_items.saturating_add(steps.len() as u64);
        for s in &mut self.samplers {
            s.update_batch(&steps);
        }
        for run in steps.chunk_by(|a, b| a.0 == b.0) {
            self.distinct.observe(run[0].0);
        }
    }

    fn bank_counters(&self) -> Option<BankCounters> {
        Some(self.counters)
    }
}

impl SpaceUsage for CashRegisterHIndex {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated samplers fit in usize"
    )]
    fn space_words(&self) -> usize {
        let sampler_words: usize = self.samplers.iter().map(SpaceUsage::space_words).sum();
        sampler_words + self.distinct.space_words() + 1
    }

    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`samplers.first()` matched, so `samplers[1..]` is in bounds; word counts of allocated ladders fit in usize"
    )]
    fn scratch_words(&self) -> usize {
        // The bank shares one power ladder: count the table once, not
        // once per sampler. Samplers that kept their own ladder (old
        // snapshots) still report individually.
        let Some(first) = self.samplers.first() else {
            return 0;
        };
        let shared = first.ladder_arc();
        let mut words = first.scratch_words();
        for s in &self.samplers[1..] {
            if !Arc::ptr_eq(s.ladder_arc(), shared) {
                words += s.scratch_words();
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::h_index;
    use hindex_stream::generator::planted_h_corpus;
    use hindex_stream::{Corpus, Unaggregator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn additive(e: f64, d: f64) -> CashRegisterParams {
        CashRegisterParams::Additive {
            epsilon: Epsilon::new(e).unwrap(),
            delta: Delta::new(d).unwrap(),
        }
    }

    /// Feed a corpus as a shuffled unit-update cash-register stream.
    fn run(corpus: &Corpus, params: CashRegisterParams, seed: u64) -> CashRegisterHIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut est = CashRegisterHIndex::new(params, &mut rng);
        let updates = Unaggregator { max_batch: 3, shuffle: true }.stream(corpus, &mut rng);
        for u in &updates {
            est.ingest(u.paper.0, u.delta);
        }
        est
    }

    #[test]
    fn sampler_counts_match_theorem() {
        let add = additive(0.2, 0.1);
        // 3/0.04 · ln 20 = 75 · 3.0 = 224.6 → 225.
        assert_eq!(add.num_samplers(), 225);
        let mul = CashRegisterParams::Multiplicative {
            epsilon: Epsilon::new(0.2).unwrap(),
            delta: Delta::new(0.1).unwrap(),
            beta: 100,
            distinct_bound: 1000,
        };
        assert_eq!(mul.num_samplers(), 2247);
    }

    #[test]
    fn empty_stream_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let est = CashRegisterHIndex::new(additive(0.3, 0.2), &mut rng);
        assert_eq!(est.estimate(), 0);
    }

    #[test]
    fn additive_guarantee_small_corpus() {
        // D = 60 cited papers, h* = 20: additive slack ε·D = 18.
        let e = 0.3;
        let corpus = planted_h_corpus(20, 60, 5);
        let truth = h_index(&corpus.citation_counts());
        assert_eq!(truth, 20);
        let mut ok = 0;
        let trials = 10;
        for seed in 0..trials {
            let est = run(&corpus, additive(e, 0.1), seed);
            let got = est.estimate();
            let d = corpus.ground_truth().distinct_cited;
            if (got as f64 - truth as f64).abs() <= e * d as f64 {
                ok += 1;
            }
        }
        assert!(ok >= trials - 1, "additive guarantee failed {}/{trials}", trials - ok);
    }

    #[test]
    fn dense_support_estimates_well() {
        // Every cited paper is in the H-support: D = h* = 50, so the
        // additive ε·D bound is effectively multiplicative.
        let e = 0.25;
        let counts: Vec<u64> = vec![100; 50];
        let corpus = Corpus::solo_from_counts(&counts);
        let mut ok = 0;
        let trials = 10;
        for seed in 0..trials {
            let est = run(&corpus, additive(e, 0.1), seed);
            let got = est.estimate();
            if (got as f64 - 50.0).abs() <= e * 50.0 {
                ok += 1;
            }
        }
        assert!(ok >= trials - 1, "only {ok}/{trials} within bounds");
    }

    #[test]
    fn multiplicative_mode_with_promised_bound() {
        let e = 0.3;
        // h* = 25 out of D ≤ 100 cited papers.
        let corpus = planted_h_corpus(25, 100, 9);
        let params = CashRegisterParams::Multiplicative {
            epsilon: Epsilon::new(e).unwrap(),
            delta: Delta::new(0.2).unwrap(),
            beta: 20,
            distinct_bound: 100,
        };
        let mut ok = 0;
        let trials = 4;
        for seed in 0..trials {
            let est = run(&corpus, params, seed);
            let got = est.estimate();
            if (got as f64 - 25.0).abs() <= e * 25.0 {
                ok += 1;
            }
        }
        assert!(ok >= trials - 1, "only {ok}/{trials} within ±ε h*");
    }

    #[test]
    fn updates_accumulate_across_batches() {
        // The same paper updated many times must count once, with its
        // total.
        let mut rng = StdRng::seed_from_u64(3);
        let mut est = CashRegisterHIndex::new(additive(0.3, 0.1), &mut rng);
        // 30 papers × 30 unit updates each, interleaved: h* = 30.
        for round in 0..30 {
            for paper in 0..30u64 {
                est.ingest(paper, 1);
                let _ = round;
            }
        }
        let got = est.estimate();
        assert!(
            (got as f64 - 30.0).abs() <= 0.3 * 30.0 + 1.0,
            "got {got}, want ≈ 30"
        );
    }

    #[test]
    fn samples_carry_exact_values() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut est = CashRegisterHIndex::new(additive(0.3, 0.3), &mut rng);
        for paper in 0..20u64 {
            for _ in 0..=paper {
                est.ingest(paper, 1);
            }
        }
        for (paper, value) in est.draw_samples() {
            assert_eq!(value, paper + 1, "paper {paper} recovered wrong total");
        }
    }

    #[test]
    fn update_batch_coalescing_matches_loop() {
        let mut rng = StdRng::seed_from_u64(11);
        let proto = CashRegisterHIndex::new(additive(0.3, 0.2), &mut rng);
        let mut batched = proto.clone();
        let mut looped = proto;
        let updates: Vec<(u64, u64)> = (0..5_000u64).map(|k| (k % 70, 1 + k % 3)).collect();
        batched.ingest_batch(&updates);
        for &(i, z) in &updates {
            looped.ingest(i, z);
        }
        assert_eq!(batched.estimate(), looped.estimate());
        assert_eq!(batched.draw_samples(), looped.draw_samples());
    }

    #[test]
    fn bank_batch_matches_scalar_loop_state() {
        let mut rng = StdRng::seed_from_u64(21);
        let proto = CashRegisterHIndex::new(additive(0.3, 0.2), &mut rng);
        let mut batched = proto.clone();
        let mut looped = proto;
        let updates: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k % 333, 1 + k % 4)).collect();
        // Odd chunking so each chunk coalesces on its own and the
        // same index straddles chunk boundaries.
        let mut distinct_per_chunk = 0u64;
        for chunk in updates.chunks(701) {
            batched.ingest_batch(chunk);
            let mut indices: Vec<u64> = chunk.iter().map(|&(i, _)| i).collect();
            indices.sort_unstable();
            indices.dedup();
            distinct_per_chunk += indices.len() as u64;
        }
        for &(i, z) in &updates {
            looped.ingest(i, z);
        }
        assert_eq!(batched.estimate(), looped.estimate());
        assert_eq!(batched.draw_samples(), looped.draw_samples());
        assert_eq!(batched.frame_digest(), looped.frame_digest());
        let c = batched.bank_counters().expect("bank estimator reports counters");
        assert_eq!(c.raw_updates, 3_000);
        // One coalesced item per distinct index per batch.
        assert_eq!(c.tile_items, distinct_per_chunk);
        // The scalar path never counts.
        assert!(looped.bank_counters().unwrap().is_empty());
    }

    #[test]
    fn scratch_words_counts_the_shared_ladder_once() {
        let mut rng = StdRng::seed_from_u64(6);
        let est = CashRegisterHIndex::new(additive(0.3, 0.2), &mut rng);
        assert!(est.num_samplers() > 10);
        // One shared ladder table (~2049 words) for the whole bank,
        // not one per sampler.
        assert!(est.scratch_words() < 2 * 2050, "{}", est.scratch_words());
        assert!(est.scratch_words() > 0);
    }

    #[test]
    fn snapshot_roundtrip_restores_bank_sharing() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut est = CashRegisterHIndex::new(additive(0.4, 0.3), &mut rng);
        est.ingest_batch(&(0..500u64).map(|k| (k % 90, 1 + k % 2)).collect::<Vec<_>>());
        let bytes = est.to_bytes();
        let (mut back, _) = CashRegisterHIndex::read_from(&bytes).unwrap();
        // Decode re-points every sampler at one ladder, so the
        // restored bank counts one table, not one per sampler.
        assert_eq!(back.scratch_words(), est.scratch_words());
        assert_eq!(back.scratch_words(), back.samplers[0].scratch_words());
        back.ingest_batch(&[(7, 3), (11, 2)]);
        est.ingest_batch(&[(7, 3), (11, 2)]);
        assert_eq!(back.estimate(), est.estimate());
        assert_eq!(back.draw_samples(), est.draw_samples());
    }

    #[test]
    fn bank_with_distinct_points_decodes_unchanged() {
        // A bank built the way snapshots before bank sharing were: one
        // `new` per sampler, so every sampler draws its own point.
        let mut rng = StdRng::seed_from_u64(41);
        let mut proto = CashRegisterHIndex::new(additive(0.4, 0.3), &mut rng);
        let params = L0SamplerParams::default();
        for s in &mut proto.samplers {
            *s = L0Sampler::new(params, &mut rng);
        }
        let x = proto.num_samplers();
        let (proto, _) = CashRegisterHIndex::read_from(&proto.to_bytes()).unwrap();
        // Decode keeps one ladder per sampler: x tables, not one.
        let table = proto.samplers[0].scratch_words();
        assert_eq!(proto.scratch_words(), x * table);
        let updates: Vec<(u64, u64)> = (0..2_000u64).map(|k| ((k * 31) % 257, 1 + k % 3)).collect();
        let mut batched = proto.clone();
        let mut looped = proto;
        for chunk in updates.chunks(333) {
            batched.ingest_batch(chunk);
        }
        for &(i, z) in &updates {
            looped.ingest(i, z);
        }
        assert_eq!(batched.frame_digest(), looped.frame_digest());
        assert_eq!(batched.estimate(), looped.estimate());
    }

    #[test]
    fn space_scales_with_sampler_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let small = CashRegisterHIndex::new(additive(0.5, 0.5), &mut rng);
        let big = CashRegisterHIndex::new(additive(0.2, 0.05), &mut rng);
        assert!(big.num_samplers() > small.num_samplers());
        assert!(big.space_words() > small.space_words());
    }
}
