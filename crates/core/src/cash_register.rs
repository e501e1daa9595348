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
    BankCounters, CashRegisterEstimator, Delta, Epsilon, Estimate, EstimatorParams, ExpGrid,
    Mergeable, SpaceUsage,
};
use hindex_hashing::{from_i64, mersenne_mul, PowerLadder};
use hindex_sketch::distinct::DistinctCounter;
use hindex_sketch::{BankScratch, Bjkst, L0Sampler, L0SamplerParams};
use rand::Rng;
use std::sync::Arc;

/// Tile size of the bank ingest kernel: matches the sparse-recovery
/// batch tile, so one column-hash sweep per row serves a whole tile.
const BANK_TILE: usize = 256;

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
    /// Largest value a single update has carried (caps the level scan).
    max_seen: u64,
    /// Working buffers for the bank tile kernel — derived scratch, not
    /// sketch state (excluded from snapshots and digests).
    scratch: BankScratch,
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
        // One fingerprint ladder serves the whole bank: the bank
        // kernel then evaluates each update's fingerprint term once
        // for all x samplers. `with_shared_ladder` burns the point
        // draw `new` would make, so the bank consumes the same RNG
        // stream as independent per-sampler construction.
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
            scratch: BankScratch::default(),
            counters: BankCounters::default(),
        }
    }

    /// The bank-wide shared ladder, when every sampler still shares
    /// one — always true for freshly built estimators. Snapshots
    /// written before bank sharing restore per-sampler points; those
    /// banks return `None` and take the per-sampler batch path.
    fn bank_ladder(&self) -> Option<Arc<PowerLadder>> {
        let first = self.samplers.first()?.ladder_arc();
        self.samplers[1..]
            .iter()
            .all(|s| Arc::ptr_eq(s.ladder_arc(), first))
            .then(|| Arc::clone(first))
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> CashRegisterParams {
        self.params
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
        // unchanged and take the per-sampler batch path.
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
            scratch: BankScratch::default(),
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

impl EstimatorParams for CashRegisterParams {
    type Output = CashRegisterHIndex;

    fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> CashRegisterHIndex {
        CashRegisterHIndex::new(*self, rng)
    }
}

impl Estimate for CashRegisterHIndex {
    fn estimate(&self) -> u64 {
        let samples = self.draw_samples();
        if samples.is_empty() {
            return 0;
        }
        let x = samples.len() as f64;
        let y = self.distinct.estimate() as f64;
        let eps = self.params.epsilon().get();
        // Scan levels from 0 while thresholds stay below the largest
        // conceivable count; track the best qualifying threshold.
        let max_count = samples.iter().map(|&(_, v)| v).max().unwrap_or(0);
        let mut best = 0u64;
        let mut level = 0u32;
        loop {
            let t_int = self.grid.int_threshold(level);
            if t_int > max_count {
                break;
            }
            let hits = samples.iter().filter(|&&(_, v)| v >= t_int).count() as f64;
            let r = hits * y / x;
            if r >= self.grid.threshold(level) * (1.0 - eps) {
                best = t_int;
            }
            level += 1;
        }
        best
    }
}

impl CashRegisterEstimator for CashRegisterHIndex {
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

    /// Batch fast path: coalesces duplicate indices before touching the
    /// sampler bank.
    ///
    /// Every structure inside is either linear in the deltas (the
    /// sparse-recovery counters behind each ℓ₀-sampler) or idempotent
    /// per index (BJKST's `observe`), so `V[i] += z₁; V[i] += z₂` is
    /// state-identical to `V[i] += z₁+z₂`. Real citation batches repeat
    /// hot papers heavily; collapsing them means each of the `x`
    /// samplers is touched once per *distinct* index instead of once
    /// per update.
    fn ingest_batch(&mut self, updates: &[(u64, u64)]) {
        // `max_seen` tracks the largest *single-update* delta, so take
        // it from the raw deltas before coalescing sums them.
        self.counters.raw_updates = self.counters.raw_updates.saturating_add(updates.len() as u64);
        for &(_, z) in updates {
            self.max_seen = self.max_seen.max(z);
        }
        // Coalesce in u128: two u64 deltas of the same index can
        // exceed `u64::MAX`, and a wrapped total would corrupt every
        // sampler at once.
        let mut sorted: Vec<(u64, u64)> =
            updates.iter().copied().filter(|&(_, z)| z != 0).collect();
        sorted.sort_unstable_by_key(|&(i, _)| i);
        let mut coalesced: Vec<(u64, u128)> = Vec::with_capacity(sorted.len());
        for &(i, z) in &sorted {
            match coalesced.last_mut() {
                Some(last) if last.0 == i => last.1 += u128::from(z),
                _ => coalesced.push((i, u128::from(z))),
            }
        }
        if coalesced.is_empty() {
            return;
        }
        // Expand each coalesced total back into signed steps (the
        // samplers are linear in the delta, so the split is
        // state-exact); totals fit one step unless a batch really
        // carried more than `i64::MAX` for one index.
        let mut signed: Vec<(u64, i64)> = Vec::with_capacity(coalesced.len());
        for &(i, total) in &coalesced {
            let mut rest = total;
            while rest > 0 {
                let step = rest.min(i64::MAX as u128) as i64;
                rest -= step as u128;
                signed.push((i, step));
            }
        }
        if let Some(ladder) = self.bank_ladder() {
            // Bank kernel: tile the coalesced batch, evaluate each
            // item's fingerprint term `z · r^i` once at the
            // bank-shared point, and let every sampler dispatch the
            // tile through survivor-only level batching. State stays
            // bit-identical to the scalar loop — the kernels reorder
            // only commutative exact additions.
            let mut idx: Vec<u64> = Vec::with_capacity(BANK_TILE.min(signed.len()));
            let mut del: Vec<i64> = Vec::with_capacity(idx.capacity());
            let mut terms: Vec<u64> = Vec::with_capacity(idx.capacity());
            for chunk in signed.chunks(BANK_TILE) {
                idx.clear();
                del.clear();
                terms.clear();
                for &(i, z) in chunk {
                    idx.push(i);
                    del.push(z);
                    terms.push(mersenne_mul(from_i64(z), ladder.pow(i)));
                }
                let mut touches = 0u64;
                for s in &mut self.samplers {
                    touches = touches
                        .saturating_add(s.ingest_tile_with_terms(&idx, &del, &terms, &mut self.scratch));
                }
                self.counters.tiles += 1;
                self.counters.tile_items =
                    self.counters.tile_items.saturating_add(chunk.len() as u64);
                self.counters.tile_capacity += BANK_TILE as u64;
                self.counters.level_touches += touches;
                self.counters.pow_evals =
                    self.counters.pow_evals.saturating_add(chunk.len() as u64);
                self.counters.pow_reused = self.counters.pow_reused.saturating_add(
                    (chunk.len() as u64)
                        .saturating_mul((self.samplers.len() as u64).saturating_sub(1)),
                );
            }
        } else {
            // Per-sampler fallback (restored pre-bank snapshots): the
            // batched kernel path inside each sampler, own ladders.
            for s in &mut self.samplers {
                s.update_batch(&signed);
            }
        }
        for &(i, _) in &coalesced {
            self.distinct.observe(i);
        }
    }

    fn bank_counters(&self) -> Option<BankCounters> {
        Some(self.counters)
    }
}

impl SpaceUsage for CashRegisterHIndex {
    fn space_words(&self) -> usize {
        let sampler_words: usize = self.samplers.iter().map(SpaceUsage::space_words).sum();
        sampler_words + self.distinct.space_words() + 1
    }

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
        // Odd chunking so tiles run partially full and straddle
        // coalescing boundaries.
        for chunk in updates.chunks(701) {
            batched.ingest_batch(chunk);
        }
        for &(i, z) in &updates {
            looped.ingest(i, z);
        }
        assert_eq!(batched.estimate(), looped.estimate());
        assert_eq!(batched.draw_samples(), looped.draw_samples());
        assert_eq!(batched.frame_digest(), looped.frame_digest());
        let c = batched.bank_counters().expect("bank estimator reports counters");
        assert!(c.tiles >= 5, "tiles {}", c.tiles);
        assert_eq!(c.raw_updates, 3_000);
        assert!(c.level_touches > 0);
        // Every term computed once is reused by the other x−1 samplers.
        assert_eq!(c.pow_reused, c.pow_evals * (batched.num_samplers() as u64 - 1));
        // The scalar path never enters the bank kernel.
        let scalar_counters = looped.bank_counters().unwrap();
        assert_eq!(scalar_counters.tiles, 0);
    }

    #[test]
    fn scratch_words_counts_bank_ladder_once() {
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
        // restored estimator keeps the bank fast path (and the
        // deduplicated scratch accounting).
        assert!(back.bank_ladder().is_some());
        assert_eq!(back.scratch_words(), est.scratch_words());
        back.ingest_batch(&[(7, 3), (11, 2)]);
        est.ingest_batch(&[(7, 3), (11, 2)]);
        assert_eq!(back.estimate(), est.estimate());
        assert_eq!(back.draw_samples(), est.draw_samples());
    }

    #[test]
    fn params_build_matches_new() {
        let params = additive(0.3, 0.2);
        let via_trait = params.build(&mut StdRng::seed_from_u64(9));
        let via_new = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(9));
        assert_eq!(via_trait.num_samplers(), via_new.num_samplers());
        assert_eq!(via_trait.space_words(), via_new.space_words());
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
