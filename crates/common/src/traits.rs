//! Estimator traits implemented by every streaming algorithm in the
//! workspace.
//!
//! The paper distinguishes two input models (§2.3):
//!
//! * **aggregate** — the stream delivers each coordinate of the
//!   underlying vector `V` once, as a finished total
//!   ([`AggregateEstimator`]);
//! * **cash register** — the stream delivers non-negative *updates*
//!   `(i, z)` meaning `V[i] += z` ([`CashRegisterEstimator`]).
//!
//! [`SpaceUsage`] reports space in the paper's unit — machine *words* —
//! so experiments can compare measured space against the theorem bounds
//! directly rather than against allocator noise.
//!
//! # The unified ingest verb
//!
//! Every estimator consumes its stream through **`ingest`** (one item)
//! and **`ingest_batch`** (a slice), whatever the input model:
//!
//! | trait                     | `ingest` signature          |
//! |---------------------------|-----------------------------|
//! | [`AggregateEstimator`]    | `ingest(value)`             |
//! | [`CashRegisterEstimator`] | `ingest(index, delta: u64)` |
//! | [`TurnstileEstimator`]    | `ingest(index, delta: i64)` |
//!
//! and every estimator answers through [`Estimate::estimate`], the one
//! query verb shared by all three traits (their supertrait). The
//! historical verbs (`push`/`update`/`push_batch`/`update_batch`)
//! survived one release as `#[deprecated]` delegating shims and are now
//! gone; the `ingest` spelling is the only one. Since the traits no
//! longer declare the old verbs, rustc rejects any estimator impl that
//! defines one (E0407), so they cannot creep back in.
//!
//! Two additions support the sharded ingestion engine
//! (`hindex-engine`):
//!
//! * batched ingestion (`ingest_batch`) — default implementations loop
//!   over the single-item methods, and estimators override them where a
//!   batch admits a faster path (e.g. coalescing duplicate indices
//!   before touching every sampler);
//! * [`Mergeable`], the contract that two independently-fed estimators
//!   built from **identical randomness** can be combined into the
//!   estimator of the concatenated stream. Every linear sketch in the
//!   workspace satisfies it; the engine relies on it to answer anytime
//!   queries across shards.
//!
//! [`EstimatorParams`] unifies construction: a parameter struct knows
//! how to `build` its estimator from a caller-supplied RNG, which is
//! what lets the engine clone one seeded prototype per shard.

use rand::Rng;

/// The one query verb every estimator answers: the current estimate of
/// the quantity it tracks (H-index, g-index, window count, …).
///
/// Supertrait of all three ingestion traits, so generic plumbing — the
/// sharded engine's [`QueryReport`-style](crate) boundaries in
/// particular — can ask any estimator for its answer without knowing
/// the input model.
pub trait Estimate {
    /// Current estimate over everything ingested so far.
    fn estimate(&self) -> u64;
}

/// Streaming estimator over the aggregate model: one finished total per
/// publication.
pub trait AggregateEstimator: Estimate {
    /// Feeds one aggregate value (e.g. the final citation count of one
    /// paper).
    fn ingest(&mut self, value: u64);

    /// Feeds a batch of aggregate values. Semantically identical to
    /// ingesting each value in order; implementations may override for
    /// a faster batch path.
    fn ingest_batch(&mut self, values: &[u64]) {
        for &v in values {
            self.ingest(v);
        }
    }

    /// Convenience: consume an iterator of values.
    fn extend_from<I: IntoIterator<Item = u64>>(&mut self, values: I)
    where
        Self: Sized,
    {
        for v in values {
            self.ingest(v);
        }
    }
}

/// Streaming estimator over the cash-register model: updates `(index,
/// delta)` to an underlying vector, `delta ≥ 1`.
pub trait CashRegisterEstimator: Estimate {
    /// Applies the update `V[index] += delta`.
    fn ingest(&mut self, index: u64, delta: u64);

    /// Applies a batch of updates. Semantically identical to applying
    /// each update in order; implementations may override for a faster
    /// batch path (cash-register state is order-insensitive, so
    /// overrides are free to coalesce duplicate indices).
    fn ingest_batch(&mut self, updates: &[(u64, u64)]) {
        for &(i, z) in updates {
            self.ingest(i, z);
        }
    }

    /// Bank-batching telemetry accumulated by this estimator's ingest
    /// kernel, if it exposes any (see
    /// [`BankCounters`](crate::telemetry::BankCounters)). The engine
    /// surfaces this through the observability layer after merging
    /// shards; estimators without a bank kernel report `None`.
    fn bank_counters(&self) -> Option<crate::telemetry::BankCounters> {
        None
    }
}

/// Streaming estimator over the turnstile model: signed updates
/// `(index, delta)` with `delta` possibly negative (retractions).
///
/// Strictly more general than [`CashRegisterEstimator`]; it gets its
/// own trait (rather than a widening of that one) because the paper's
/// cash-register algorithms are *not* deletion-tolerant — the type
/// system should refuse to route a stream with retractions into them.
pub trait TurnstileEstimator: Estimate {
    /// Applies the update `V[index] += delta` (`delta` may be
    /// negative).
    fn ingest(&mut self, index: u64, delta: i64);

    /// Applies a batch of updates. Semantically identical to applying
    /// each update in order; linear-sketch implementations override
    /// with coalescing/batched-kernel paths that stay state-identical
    /// (exact cancellation makes the state order-insensitive).
    fn ingest_batch(&mut self, updates: &[(u64, i64)]) {
        for &(i, d) in updates {
            self.ingest(i, d);
        }
    }
}

/// Estimators whose states combine: after `a.merge(&b)`, `a` is exactly
/// (or distributionally, see below) the estimator that saw `a`'s stream
/// followed by `b`'s stream.
///
/// Both operands must have been built with the **same parameters and
/// the same randomness** (same hash functions, same grid) — in
/// practice, by cloning one seeded prototype. For linear sketches
/// (sparse recovery, ℓ₀-samplers, BJKST, count-min, exponential
/// histograms) the merged state is *bit-identical* to single-stream
/// ingestion. Sampling-based structures (reservoirs inside the heavy
/// hitters machinery) merge to the correct *distribution* rather than a
/// bit-identical state, which is documented on the implementation.
pub trait Mergeable {
    /// Folds `other`'s state into `self`.
    ///
    /// # Panics
    ///
    /// Implementations panic when the operands' parameters are
    /// incompatible (different grid, different width), since silently
    /// combining them would corrupt estimates.
    fn merge(&mut self, other: &Self);
}

/// Unified construction: a parameter object that builds its estimator
/// from a caller-supplied RNG.
///
/// This is the seam the sharded engine builds on: construct one
/// prototype with a seeded RNG, clone it per shard, and the shards
/// share randomness — the precondition of [`Mergeable`].
pub trait EstimatorParams {
    /// The estimator this parameter set configures.
    type Output;

    /// Draws whatever randomness the estimator needs from `rng` and
    /// returns the configured estimator.
    fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Output;
}

/// Space accounting in machine words, the unit the paper's theorems are
/// stated in (each word is `log n` bits).
pub trait SpaceUsage {
    /// Number of words of state currently held: counters, stored sample
    /// values/indices, sketch cells. Fixed-size configuration scalars
    /// (ε, thresholds derivable from ε) are excluded, matching how the
    /// paper counts.
    fn space_words(&self) -> usize;

    /// Words of **derived scratch**: lookup tables and working buffers
    /// that are recomputable from the randomness already counted in
    /// [`SpaceUsage::space_words`] (windowed power ladders, decode
    /// scratch). These trade memory for cycles without adding
    /// information, so the paper's random-words bounds — and every
    /// space-contract test — are stated over `space_words` alone;
    /// scratch is reported on this separate channel so deployments can
    /// still see the true resident footprint
    /// (`space_words() + scratch_words()`). Policy:
    /// `docs/ALGORITHMS.md`, "Space accounting for derived scratch".
    fn scratch_words(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal conforming implementation to exercise defaults.
    struct CountAtLeast {
        bar: u64,
        count: u64,
    }

    impl Estimate for CountAtLeast {
        fn estimate(&self) -> u64 {
            self.count
        }
    }

    impl AggregateEstimator for CountAtLeast {
        fn ingest(&mut self, value: u64) {
            if value >= self.bar {
                self.count += 1;
            }
        }
    }

    #[test]
    fn extend_from_drains_iterator() {
        let mut c = CountAtLeast { bar: 3, count: 0 };
        c.extend_from([1u64, 3, 5, 2, 9]);
        assert_eq!(c.estimate(), 3);
    }

    #[test]
    fn ingest_batch_default_matches_ingest_loop() {
        let mut batched = CountAtLeast { bar: 3, count: 0 };
        let mut looped = CountAtLeast { bar: 3, count: 0 };
        let values = [1u64, 3, 5, 2, 9, 3];
        batched.ingest_batch(&values);
        for &v in &values {
            looped.ingest(v);
        }
        assert_eq!(batched.estimate(), looped.estimate());
    }

    struct SumRegister {
        total: u64,
    }

    impl Estimate for SumRegister {
        fn estimate(&self) -> u64 {
            self.total
        }
    }

    impl CashRegisterEstimator for SumRegister {
        fn ingest(&mut self, _index: u64, delta: u64) {
            self.total += delta;
        }
    }

    #[test]
    fn ingest_batch_default_matches_update_loop() {
        let mut batched = SumRegister { total: 0 };
        let mut looped = SumRegister { total: 0 };
        let updates = [(1u64, 2u64), (7, 1), (1, 3)];
        batched.ingest_batch(&updates);
        for &(i, z) in &updates {
            looped.ingest(i, z);
        }
        assert_eq!(batched.estimate(), looped.estimate());
    }

    /// A tiny signed accumulator exercises the turnstile defaults.
    struct SignedSum {
        total: i64,
    }

    impl Estimate for SignedSum {
        fn estimate(&self) -> u64 {
            self.total.max(0) as u64
        }
    }

    impl TurnstileEstimator for SignedSum {
        fn ingest(&mut self, _index: u64, delta: i64) {
            self.total += delta;
        }
    }

    #[test]
    fn turnstile_ingest_batch_matches_loop() {
        let mut batched = SignedSum { total: 0 };
        batched.ingest_batch(&[(1, 5), (2, 3), (3, -4)]);
        let mut looped = SignedSum { total: 0 };
        for (i, d) in [(1, 5), (2, 3), (3, -4)] {
            looped.ingest(i, d);
        }
        assert_eq!(batched.estimate(), looped.estimate());
        assert_eq!(batched.estimate(), 4);
    }
}
