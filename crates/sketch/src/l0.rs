//! ℓ₀-sampling: Definition 3 / Lemma 4 of the paper.
//!
//! Given a turnstile stream of updates to a vector `x`, an ℓ₀-sampler
//! returns (with failure probability ≤ δ) a coordinate `j` distributed
//! (near-)uniformly over the non-zero coordinates of `x` — and, in this
//! implementation, the **exact value** `x[j]`, which is what Algorithm 6
//! of the paper consumes (`V[j] ≥ (1+ε)^i` tests need values).
//!
//! Construction (Jowhari–Sağlam–Tardos, the paper's \[9\]): a level
//! hash assigns each index a geometric level (`Pr[level ≥ j] = 2⁻ʲ`);
//! level `j` maintains an s-sparse recovery of the sub-vector of indices
//! with level ≥ j. The non-zero coordinate with the minimum hash value
//! survives into every populated level and is the sample; the query
//! reads it from the sparsest populated level that decodes. Uniformity
//! follows because the level hash is independent of the values.

use crate::sparse::{DecodeScratch, SparseRecovery};
use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use hindex_common::SpaceUsage;
use hindex_hashing::field::MERSENNE_P;
use hindex_hashing::{from_i64, mersenne_mul, Hasher64, PolynomialHash, PowerLadder};
use rand::Rng;
use std::sync::Arc;

/// Configuration for [`L0Sampler`].
#[derive(Debug, Clone, Copy)]
pub struct L0SamplerParams {
    /// Per-level sparse-recovery sparsity. Larger s lowers the failure
    /// probability (`δ ≈ 2^{-Θ(s)}`). Default 8.
    pub sparsity: usize,
    /// Rows per sparse recovery (decode failure `≈ 2^{-rows}`).
    /// Default 6.
    pub rows: usize,
    /// Number of geometric levels. `levels = 64` covers any u64-sized
    /// support; smaller values save space when the support is known to
    /// be small. Default 40 (supports up to ~10¹² distinct indices).
    pub levels: usize,
    /// Independence of the level hash. Default 12.
    pub hash_independence: usize,
}

impl Default for L0SamplerParams {
    fn default() -> Self {
        Self {
            sparsity: 8,
            rows: 6,
            levels: 40,
            hash_independence: 12,
        }
    }
}

impl L0SamplerParams {
    /// Derives parameters targeting failure probability `δ`.
    ///
    /// Sets `sparsity = max(8, ⌈4·log₂(1/δ)⌉)` and
    /// `rows = max(6, ⌈log₂(1/δ)⌉ + 2)`.
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "`delta ∈ (0, 1)` makes `lg` a small positive float; float-to-int `as` saturates"
    )]
    pub fn for_failure_probability(delta: f64) -> Self {
        assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
        let lg = (1.0 / delta).log2();
        Self {
            sparsity: (4.0 * lg).ceil().max(8.0) as usize,
            rows: ((lg).ceil() as usize + 2).max(6),
            ..Self::default()
        }
    }
}

/// A linear-sketch ℓ₀-sampler over `u64` indices with exact value
/// recovery.
///
/// ```
/// use hindex_sketch::L0Sampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut s = L0Sampler::with_defaults(&mut StdRng::seed_from_u64(1));
/// s.update(7, 3);
/// s.update(9, 5);
/// s.update(7, -3); // turnstile: coordinate 7 fully cancels
/// assert_eq!(s.sample(), Some((9, 5)));
/// ```
#[derive(Debug, Clone)]
pub struct L0Sampler {
    level_hash: PolynomialHash,
    levels: Vec<SparseRecovery>,
    /// One fingerprint point — and one windowed power ladder — shared
    /// by every geometric level: each level sketches a sub-vector of
    /// the same coordinate space, so the per-level Schwartz–Zippel
    /// argument holds unchanged at a shared point, and one `rⁱ`
    /// computation per update serves all ~40 levels.
    ladder: Arc<PowerLadder>,
}

impl L0Sampler {
    /// Creates a sampler with the given parameters.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(params: L0SamplerParams, rng: &mut R) -> Self {
        assert!(params.levels >= 1 && params.levels <= 64, "levels in 1..=64");
        let level_hash = PolynomialHash::new(params.hash_independence.max(2), rng);
        let point = rng.random_range(1..MERSENNE_P);
        let ladder = Arc::new(PowerLadder::new(point));
        let levels = (0..params.levels)
            .map(|_| {
                SparseRecovery::with_shared_ladder(
                    params.sparsity.max(1),
                    params.rows.max(1),
                    Arc::clone(&ladder),
                    rng,
                )
            })
            .collect();
        Self { level_hash, levels, ladder }
    }

    /// Creates a sampler with default parameters.
    #[must_use]
    pub fn with_defaults<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(L0SamplerParams::default(), rng)
    }

    /// Creates a sampler whose fingerprint ladder is shared with an
    /// existing one — the across-the-bank extension of the per-level
    /// sharing above. Consumes exactly the same RNG stream as
    /// [`Self::new`] (the would-be point draw is made and discarded),
    /// so a bank built as one `new` plus x−1 `with_shared_ladder`
    /// calls draws identical per-sampler level hashes and row seeds
    /// to the old all-`new` construction.
    ///
    /// Sharing one fingerprint point across a bank is sound for the
    /// same reason it is across a sampler's levels: every cell's
    /// Schwartz–Zippel test is an evaluation at the shared point, and
    /// a union bound over the whole bank adds only `O(x·s·2⁻⁶¹)` to
    /// the failure probability (cf. Bhattacharyya–Dey–Woodruff's
    /// amortization of shared randomness across sub-sketches).
    #[must_use]
    pub fn with_shared_ladder<R: Rng + ?Sized>(
        params: L0SamplerParams,
        ladder: Arc<PowerLadder>,
        rng: &mut R,
    ) -> Self {
        assert!(params.levels >= 1 && params.levels <= 64, "levels in 1..=64");
        let level_hash = PolynomialHash::new(params.hash_independence.max(2), rng);
        // Burn the point draw `new` would have made so both
        // constructors advance the caller's RNG identically.
        let _unused_point = rng.random_range(1..MERSENNE_P);
        let levels = (0..params.levels)
            .map(|_| {
                SparseRecovery::with_shared_ladder(
                    params.sparsity.max(1),
                    params.rows.max(1),
                    Arc::clone(&ladder),
                    rng,
                )
            })
            .collect();
        Self { level_hash, levels, ladder }
    }

    /// The fingerprint power ladder backing every level.
    #[must_use]
    pub fn ladder_arc(&self) -> &Arc<PowerLadder> {
        &self.ladder
    }

    /// Re-points every level (and the sampler itself) at `ladder` if
    /// it carries the same fingerprint point; returns whether sharing
    /// succeeded. Used to re-establish bank-wide ladder sharing after
    /// snapshot decode.
    pub fn share_ladder(&mut self, ladder: &Arc<PowerLadder>) -> bool {
        if !self.ladder.same_base(ladder) {
            return false;
        }
        for level in &mut self.levels {
            let shared = level.share_ladder(ladder);
            debug_assert!(shared, "levels must match the sampler's own point");
        }
        self.ladder = Arc::clone(ladder);
        true
    }

    /// The geometric level of an index: `Pr[level ≥ j] = 2⁻ʲ`.
    fn level_of(&self, index: u64) -> usize {
        self.level_from_hash(self.level_hash.hash(index))
    }

    /// Level from an already-computed level-hash value — the shared
    /// tail of the scalar and batched update paths, so mixing them
    /// leaves states bit-identical.
    ///
    /// Computes `⌊−log₂(h / domain)⌋` in integer arithmetic: for
    /// positive integers, `⌊log₂(domain / h)⌋ = ⌊log₂⌊domain / h⌋⌋`,
    /// so one hardware divide and a leading-zero count replace the f64
    /// divide + libm `log2` on the per-update hot path. `Pr[level ≥ j]
    /// = 2⁻ʲ` exactly as before.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`levels` is never empty (construction and decode both require 1..=64 levels), and `h ≠ 0` before the divide"
    )]
    fn level_from_hash(&self, h: u64) -> usize {
        if h == 0 {
            return self.levels.len() - 1;
        }
        let lvl = (self.level_hash.domain() / h).ilog2() as usize;
        lvl.min(self.levels.len() - 1)
    }

    /// Applies the update `x[index] += delta`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`level_of` returns at most `levels.len() − 1`"
    )]
    pub fn update(&mut self, index: u64, delta: i64) {
        let top = self.level_of(index);
        // All levels share one fingerprint point: one ladder pow
        // (≤ 7 multiplies) and one fingerprint-increment multiply
        // serve the whole level stack.
        let term = mersenne_mul(from_i64(delta), self.ladder.pow(index));
        for level in &mut self.levels[..=top] {
            level.update_with_term(index, delta, term);
        }
    }

    /// Applies a batch of updates; state-identical to looping
    /// [`Self::update`] (same operations in the same order), but the
    /// level hash — the 12-wise Horner polynomial that dominates the
    /// scalar path — runs through the batched kernel
    /// [`PolynomialHash::hash_batch`], which keeps four reduction
    /// chains in flight instead of one.
    #[expect(
        clippy::indexing_slicing,
        reason = "`level_from_hash` returns at most `levels.len() − 1`"
    )]
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        if updates.is_empty() {
            return;
        }
        let raw_indices: Vec<u64> = updates.iter().map(|&(i, _)| i).collect();
        let mut hashes = Vec::with_capacity(raw_indices.len());
        self.level_hash.hash_batch(&raw_indices, &mut hashes);
        for (&(index, delta), &h) in updates.iter().zip(&hashes) {
            let top = self.level_from_hash(h);
            let term = mersenne_mul(from_i64(delta), self.ladder.pow(index));
            for level in &mut self.levels[..=top] {
                level.update_with_term(index, delta, term);
            }
        }
    }

    /// Merges another sampler built with identical randomness (clone of
    /// the same instance before any updates).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.levels.len(), other.levels.len(), "level mismatch");
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b);
        }
    }

    /// Draws the sample: `Some((index, value))` for a (near-)uniform
    /// non-zero coordinate, or `None` on failure (zero vector, or all
    /// populated levels too dense/undecodable — probability ≤ δ by
    /// construction).
    ///
    /// The sample is the non-zero coordinate with the smallest level
    /// hash. Levels are nested — level `j` sketches the coordinates
    /// whose top level is `≥ j` — and the top level never falls as the
    /// hash shrinks, so that coordinate lies in every non-empty level
    /// and is the min-hash survivor of every level that decodes. The
    /// search therefore starts at the sparse end: it walks down from
    /// the deepest level, steps over levels that decode empty or fail
    /// to decode, and answers from the first level that decodes to a
    /// non-empty support. Never-touched levels are lazily empty and
    /// cost nothing, so a sample costs about one real decode, where a
    /// walk up from level 0 first decodes and rejects every level too
    /// dense to peel.
    ///
    /// Both walks fail exactly when no non-empty level decodes, and
    /// they return different samples only if the residual-checksum
    /// test wrongly accepts some level's decode: the fingerprint
    /// failure event every decode already carries.
    #[must_use]
    pub fn sample(&self) -> Option<(u64, i64)> {
        // One scratch serves every level probed.
        let mut scratch = DecodeScratch::default();
        self.levels.iter().rev().find_map(|level| {
            let support = level.decode_with(&mut scratch)?;
            support
                .iter()
                .copied()
                .min_by_key(|&(i, _)| self.level_hash.hash(i))
        })
    }

    /// Number of levels.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Estimate of `ℓ₀(x)` (the number of non-zero coordinates) from
    /// this sampler's own level structure: the first level whose
    /// sparse recovery decodes has `m` survivors out of an expected
    /// `ℓ₀/2ʲ`, so `m·2ʲ` estimates the norm with relative error
    /// `≈ √(2/s)`. Exact whenever `ℓ₀ ≤ s` (level 0 decodes). `None`
    /// on total decode failure.
    ///
    /// Unlike [`Self::sample`], the answer depends on which level
    /// decodes, so this search keeps its order: up from level 0.
    #[must_use]
    pub(crate) fn l0_estimate(&self) -> Option<u64> {
        let mut scratch = DecodeScratch::default();
        for (j, level) in self.levels.iter().enumerate() {
            if let Some(support) = level.decode_with(&mut scratch) {
                return Some((support.len() as u64) << j);
            }
        }
        None
    }
}

/// Payload: the level hash, then the level count and the levels as
/// nested frames. Decode re-establishes the one-ladder-per-stack
/// sharing: every restored level must carry the same fingerprint
/// point (a structural invariant of construction), and all levels are
/// re-pointed at a single rebuilt [`PowerLadder`].
impl Snapshot for L0Sampler {
    const TAG: u8 = 7;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_nested(&self.level_hash);
        w.put_usize(self.levels.len());
        for level in &self.levels {
            w.put_nested(level);
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`count ∈ 1..=64` is checked first, so `levels[0]` exists"
    )]
    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let level_hash = r.get_nested::<PolynomialHash>()?;
        let count = r.get_usize()?;
        if !(1..=64).contains(&count) {
            return Err(SnapshotError::Invalid("level count outside 1..=64"));
        }
        let mut levels = Vec::with_capacity(count);
        for _ in 0..count {
            levels.push(r.get_nested::<SparseRecovery>()?);
        }
        let ladder = Arc::clone(levels[0].ladder());
        for level in &mut levels {
            if !level.share_ladder(&ladder) {
                return Err(SnapshotError::Invalid(
                    "levels must share one fingerprint point",
                ));
            }
        }
        Ok(Self { level_hash, levels, ladder })
    }
}

/// Turnstile `(1±ε, δ)` estimator of the number of non-zero
/// coordinates (`ℓ₀` norm): the median of independent level-sampled
/// estimates.
///
/// This is the deletion-tolerant replacement for
/// [`crate::Bjkst`] that the turnstile H-index estimator needs:
/// insert-only F₀ sketches cannot un-count a paper whose responses are
/// all retracted, a linear sketch can.
#[derive(Debug, Clone)]
pub struct L0Norm {
    cores: Vec<L0Sampler>,
}

impl L0Norm {
    /// Creates an estimator with accuracy `ε` and failure probability
    /// `δ`: `2⌈log₂(1/δ)⌉ + 1` cores with per-level sparsity
    /// `⌈8/ε²⌉`.
    ///
    /// # Panics
    ///
    /// Panics unless `ε, δ ∈ (0, 1)`.
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "`ε, δ ∈ (0, 1)` are asserted, so the logarithms and ratios are small positive floats; float-to-int `as` saturates"
    )]
    pub fn new<R: Rng + ?Sized>(epsilon: f64, delta: f64, rng: &mut R) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        let copies = 2 * ((1.0 / delta).log2().ceil() as usize) + 1;
        let params = L0SamplerParams {
            sparsity: (8.0 / (epsilon * epsilon)).ceil() as usize,
            ..L0SamplerParams::default()
        };
        Self {
            cores: (0..copies).map(|_| L0Sampler::new(params, rng)).collect(),
        }
    }

    /// Applies the update `x[index] += delta`.
    pub fn update(&mut self, index: u64, delta: i64) {
        for c in &mut self.cores {
            c.update(index, delta);
        }
    }

    /// Applies a batch of updates through every core's batched kernel
    /// path; state-identical to looping [`Self::update`].
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        for c in &mut self.cores {
            c.update_batch(updates);
        }
    }

    /// Merges a same-randomness clone (linear sketch).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.cores.len(), other.cores.len(), "core count mismatch");
        for (a, b) in self.cores.iter_mut().zip(&other.cores) {
            a.merge(b);
        }
    }

    /// Median estimate of the number of non-zero coordinates.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "`ests` is non-empty here, so its middle element exists"
    )]
    pub fn estimate(&self) -> u64 {
        let mut ests: Vec<u64> = self.cores.iter().filter_map(L0Sampler::l0_estimate).collect();
        if ests.is_empty() {
            return 0;
        }
        ests.sort_unstable();
        ests[ests.len() / 2]
    }
}

/// Payload: the core count followed by the cores as nested frames.
impl Snapshot for L0Norm {
    const TAG: u8 = 8;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_usize(self.cores.len());
        for core in &self.cores {
            w.put_nested(core);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let count = r.get_usize()?;
        if count == 0 {
            return Err(SnapshotError::Invalid("need at least one core"));
        }
        // Each core frame costs at least FRAME_OVERHEAD bytes; bound
        // the allocation by what the payload can actually hold.
        if count > r.remaining() / hindex_common::snapshot::FRAME_OVERHEAD {
            return Err(SnapshotError::Invalid("core count larger than payload"));
        }
        let mut cores = Vec::with_capacity(count);
        for _ in 0..count {
            cores.push(r.get_nested::<L0Sampler>()?);
        }
        Ok(Self { cores })
    }
}

impl SpaceUsage for L0Norm {
    fn space_words(&self) -> usize {
        self.cores.iter().map(SpaceUsage::space_words).sum()
    }

    fn scratch_words(&self) -> usize {
        self.cores.iter().map(SpaceUsage::scratch_words).sum()
    }
}

impl SpaceUsage for L0Sampler {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated levels and hash coefficients fit in usize"
    )]
    fn space_words(&self) -> usize {
        let level_words: usize = self.levels.iter().map(SpaceUsage::space_words).sum();
        level_words + self.level_hash.independence()
    }

    fn scratch_words(&self) -> usize {
        // Every level shares one ladder (`Arc`): count it once, not
        // once per level as summing the levels' own reports would.
        self.ladder.table_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, HashMap};

    fn sampler(seed: u64) -> L0Sampler {
        L0Sampler::with_defaults(&mut StdRng::seed_from_u64(seed))
    }

    /// The search `sample` replaced, kept as its reference: the
    /// min-hash survivor of the first level, counted up from level 0,
    /// that decodes.
    fn sample_bottom_up(s: &L0Sampler) -> Option<(u64, i64)> {
        let mut scratch = DecodeScratch::default();
        for level in &s.levels {
            if let Some(support) = level.decode_with(&mut scratch) {
                if support.is_empty() {
                    return None;
                }
                return support
                    .iter()
                    .copied()
                    .min_by(|&(i, _), &(j, _)| s.level_hash.hash(i).cmp(&s.level_hash.hash(j)));
            }
        }
        None
    }

    /// A stream over `support` shaped by `mode`. Mode 0 only inserts
    /// (cash register). The others are turnstile: odd indices carry
    /// negative values, and then mode 1 retracts every third coordinate
    /// fully and halves the rest, mode 2 retracts everything, and mode
    /// 3 retracts exactly the coordinates on `s`'s deepest populated
    /// level, which leaves that level touched but empty.
    fn shaped_stream(s: &L0Sampler, support: &BTreeMap<u64, i64>, mode: u8) -> Vec<(u64, i64)> {
        let signed: Vec<(u64, i64)> = support
            .iter()
            .map(|(&i, &v)| (i, if mode > 0 && i % 2 == 1 { -v } else { v }))
            .collect();
        let top = signed
            .iter()
            .map(|&(i, _)| s.level_of(i))
            .max()
            .unwrap_or(0);
        let mut updates = signed.clone();
        for (k, &(i, v)) in signed.iter().enumerate() {
            let retract = match mode {
                0 => 0,
                1 if k % 3 == 0 => v,
                1 => v / 2,
                2 => v,
                _ if s.level_of(i) == top => v,
                _ => 0,
            };
            if retract != 0 {
                updates.push((i, -retract));
            }
        }
        updates
    }

    #[test]
    fn l0_norm_exact_when_small() {
        let mut norm = L0Norm::new(0.3, 0.05, &mut StdRng::seed_from_u64(50));
        for i in 0..40u64 {
            norm.update(i * 17, 2);
        }
        assert_eq!(norm.estimate(), 40);
    }

    #[test]
    fn l0_norm_accuracy_at_scale() {
        for (seed, d) in [(51u64, 2_000u64), (52, 20_000)] {
            let mut norm = L0Norm::new(0.2, 0.05, &mut StdRng::seed_from_u64(seed));
            for i in 0..d {
                norm.update(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 60), 1);
            }
            let est = norm.estimate() as f64;
            assert!(
                (est - d as f64).abs() <= 0.25 * d as f64,
                "d={d} est={est}"
            );
        }
    }

    #[test]
    fn l0_norm_deletion_aware() {
        let mut norm = L0Norm::new(0.3, 0.05, &mut StdRng::seed_from_u64(53));
        for i in 0..60u64 {
            norm.update(i, 5);
        }
        for i in 0..30u64 {
            norm.update(i, -5); // fully retract half the coordinates
        }
        assert_eq!(norm.estimate(), 30);
    }

    #[test]
    fn l0_norm_zero_vector() {
        let mut norm = L0Norm::new(0.3, 0.1, &mut StdRng::seed_from_u64(54));
        norm.update(7, 3);
        norm.update(7, -3);
        assert_eq!(norm.estimate(), 0);
    }

    #[test]
    fn l0_norm_merge() {
        let proto = L0Norm::new(0.3, 0.1, &mut StdRng::seed_from_u64(55));
        let mut a = proto.clone();
        let mut b = proto.clone();
        for i in 0..20u64 {
            a.update(i, 1);
            b.update(100 + i, 1);
        }
        b.update(0, 1); // overlap
        a.merge(&b);
        let est = a.estimate();
        assert!((38..=42).contains(&est), "est {est}");
    }

    #[test]
    fn empty_vector_returns_none() {
        assert_eq!(sampler(0).sample(), None);
    }

    #[test]
    fn singleton_always_sampled_with_exact_value() {
        for seed in 0..30 {
            let mut s = sampler(seed);
            s.update(424_242, 17);
            assert_eq!(s.sample(), Some((424_242, 17)), "seed {seed}");
        }
    }

    #[test]
    fn sample_is_from_support_with_exact_value() {
        let truth: HashMap<u64, i64> =
            (0..500u64).map(|i| (i * 7 + 3, (i % 9 + 1) as i64)).collect();
        let mut hits = 0;
        for seed in 0..50 {
            let mut s = sampler(seed);
            for (&i, &v) in &truth {
                s.update(i, v);
            }
            if let Some((i, v)) = s.sample() {
                hits += 1;
                assert_eq!(truth.get(&i), Some(&v), "seed {seed}: wrong value");
            }
        }
        assert!(hits >= 45, "only {hits}/50 samples succeeded");
    }

    #[test]
    fn deleted_coordinates_never_sampled() {
        for seed in 0..30 {
            let mut s = sampler(seed);
            for i in 0..100u64 {
                s.update(i, 5);
            }
            for i in 0..50u64 {
                s.update(i, -5); // fully delete the bottom half
            }
            if let Some((i, v)) = s.sample() {
                assert!(i >= 50, "seed {seed}: sampled deleted index {i}");
                assert_eq!(v, 5);
            }
        }
    }

    #[test]
    fn full_cancellation_returns_none() {
        for seed in 0..20 {
            let mut s = sampler(seed);
            for i in 0..200u64 {
                s.update(i, 3);
            }
            for i in 0..200u64 {
                s.update(i, -3);
            }
            assert_eq!(s.sample(), None, "seed {seed}");
        }
    }

    #[test]
    fn samples_are_roughly_uniform() {
        // Chi-squared-style smoke test over a 20-element support using
        // independent sampler instances.
        let support: Vec<u64> = (0..20u64).map(|i| i * 101 + 5).collect();
        let mut counts: HashMap<u64, u32> = HashMap::new();
        let trials = 600u64;
        let mut fails = 0;
        for seed in 0..trials {
            let mut s = sampler(seed * 31 + 1);
            for &i in &support {
                s.update(i, 1);
            }
            match s.sample() {
                Some((i, _)) => *counts.entry(i).or_default() += 1,
                None => fails += 1,
            }
        }
        assert!(fails < trials / 20, "too many failures: {fails}");
        let succ = (trials - fails) as f64;
        let expected = succ / support.len() as f64;
        for &i in &support {
            let c = f64::from(*counts.get(&i).unwrap_or(&0));
            assert!(
                c > expected * 0.4 && c < expected * 1.9,
                "index {i}: {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut rng = StdRng::seed_from_u64(99);
        let proto = L0Sampler::with_defaults(&mut rng);
        let mut a = proto.clone();
        let mut b = proto.clone();
        let mut c = proto.clone();
        a.update(1, 1);
        a.update(2, 2);
        b.update(2, 3);
        b.update(4, 4);
        c.update(1, 1);
        c.update(2, 5);
        c.update(4, 4);
        a.merge(&b);
        assert_eq!(a.sample(), c.sample());
    }

    #[test]
    fn update_batch_matches_scalar_updates() {
        let proto = sampler(77);
        let mut scalar = proto.clone();
        let mut batched = proto.clone();
        let updates: Vec<(u64, i64)> = (0..300u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 100_000, (i % 7) as i64 - 3))
            .filter(|&(_, d)| d != 0)
            .collect();
        for &(i, d) in &updates {
            scalar.update(i, d);
        }
        batched.update_batch(&updates);
        assert_eq!(scalar.sample(), batched.sample());
        assert_eq!(scalar.l0_estimate(), batched.l0_estimate());
    }

    #[test]
    fn with_shared_ladder_consumes_same_rng_stream() {
        // A bank of one `new` + shared-ladder samplers must leave the
        // RNG exactly where a bank of plain `new` calls would.
        let params = L0SamplerParams::default();
        let mut rng_a = StdRng::seed_from_u64(91);
        let mut rng_b = StdRng::seed_from_u64(91);
        let first = L0Sampler::new(params, &mut rng_a);
        let shared = L0Sampler::with_shared_ladder(
            params,
            Arc::clone(first.ladder_arc()),
            &mut rng_a,
        );
        let _ = L0Sampler::new(params, &mut rng_b);
        let _ = L0Sampler::new(params, &mut rng_b);
        assert_eq!(
            rng_a.random_range(0..u64::MAX),
            rng_b.random_range(0..u64::MAX),
            "constructors diverged in RNG consumption"
        );
        assert!(Arc::ptr_eq(first.ladder_arc(), shared.ladder_arc()));
    }

    #[test]
    fn share_ladder_rejects_foreign_point() {
        let mut a = sampler(12);
        let b = sampler(13);
        assert!(!a.share_ladder(b.ladder_arc()));
        let own = Arc::clone(a.ladder_arc());
        assert!(a.share_ladder(&own));
    }

    #[test]
    fn scratch_words_counts_shared_ladder_once() {
        let s = sampler(11);
        // The ladder is shared by every level; the sampler must not
        // report it once per level.
        assert!(s.scratch_words() < 2 * 2049, "{}", s.scratch_words());
        assert!(s.scratch_words() > 0);
    }

    #[test]
    fn top_down_walk_falls_through_an_undecodable_top_level() {
        // One row of two cells: the deepest populated level fails to
        // peel whenever two of its coordinates share a cell, and the
        // walk must then answer from a denser level.
        let params = L0SamplerParams { sparsity: 1, rows: 1, ..L0SamplerParams::default() };
        let mut fell_through = 0;
        for seed in 0..300u64 {
            let mut s = L0Sampler::new(params, &mut StdRng::seed_from_u64(seed));
            let support: Vec<u64> = (0..2 + seed % 4).map(|k| k * 7919 + seed).collect();
            for &i in &support {
                s.update(i, 1);
            }
            let sample = s.sample();
            assert_eq!(sample, sample_bottom_up(&s), "seed {seed}");
            let top = support.iter().map(|&i| s.level_of(i)).max().unwrap();
            if s.levels[top].decode().is_none() && sample.is_some() {
                fell_through += 1;
            }
        }
        assert!(fell_through > 0, "no seed made the walk fall through");
    }

    #[test]
    fn params_for_delta_scale() {
        let loose = L0SamplerParams::for_failure_probability(0.5);
        let tight = L0SamplerParams::for_failure_probability(0.001);
        assert!(tight.sparsity > loose.sparsity);
        assert!(tight.rows >= loose.rows);
    }

    #[test]
    fn space_grows_with_sparsity() {
        let mut rng = StdRng::seed_from_u64(1);
        let small = L0Sampler::new(
            L0SamplerParams { sparsity: 2, rows: 2, levels: 10, hash_independence: 2 },
            &mut rng,
        );
        let big = L0Sampler::new(
            L0SamplerParams { sparsity: 16, rows: 8, levels: 40, hash_independence: 12 },
            &mut rng,
        );
        assert!(big.space_words() > 10 * small.space_words());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn prop_sample_from_true_support(
            seed in proptest::num::u64::ANY,
            support in proptest::collection::btree_map(0u64..100_000, 1i64..100, 1..50),
        ) {
            let mut s = sampler(seed);
            for (&i, &v) in &support {
                s.update(i, v);
            }
            if let Some((i, v)) = s.sample() {
                proptest::prop_assert_eq!(support.get(&i), Some(&v));
            }
        }

        #[test]
        fn prop_sample_matches_bottom_up_reference(
            seed in proptest::num::u64::ANY,
            sparsity in 1usize..9,
            rows in 1usize..7,
            support in proptest::collection::btree_map(0u64..100_000, 1i64..100, 1..300),
            mode in 0u8..4,
            split in 0usize..600,
        ) {
            let params = L0SamplerParams { sparsity, rows, ..L0SamplerParams::default() };
            let proto = L0Sampler::new(params, &mut StdRng::seed_from_u64(seed));
            let updates = shaped_stream(&proto, &support, mode);
            let mut serial = proto.clone();
            let (mut left, mut right) = (proto.clone(), proto);
            for (k, &(i, d)) in updates.iter().enumerate() {
                serial.update(i, d);
                if k < split { left.update(i, d) } else { right.update(i, d) }
            }
            left.merge(&right);
            let (restored, _) = L0Sampler::read_from(&serial.to_bytes()).unwrap();
            let want = sample_bottom_up(&serial);
            if mode == 2 {
                proptest::prop_assert_eq!(want, None);
            }
            for s in [&serial, &left, &restored] {
                proptest::prop_assert_eq!(s.sample(), want);
                proptest::prop_assert_eq!(sample_bottom_up(s), want);
            }
        }
    }
}
