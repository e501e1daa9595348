//! Bucket monotonicity, plus merge-identity, commutativity, split-merge
//! and cancellation properties asserted on `frame_digest()`
//! bit-identity. They hold in every build.
//!
//! `scripts/check.sh` also runs this file with `--features
//! debug_invariants`: every push/merge below then executes the internal
//! assertion layer (field canonicality, 1-sparse consistency, grid
//! consistency, bucket monotonicity), so a property that *passes* there
//! certifies both the observable contract and the internal invariants
//! along the way.

use hindex::prelude::*;
use hindex_common::Snapshot;
use hindex_sketch::{OneSparseRecovery, SparseRecovery};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest::proptest! {
    /// Algorithm 1's level counters are non-increasing in the level —
    /// the bucket-monotonicity invariant asserted inside every `push`
    /// and visible through `counters()`.
    #[test]
    fn eh_bucket_monotonicity(
        values in proptest::collection::vec(0u64..1_000_000, 1..400),
    ) {
        let mut eh = ExponentialHistogram::new(Epsilon::new(0.15).unwrap());
        for &v in &values {
            eh.ingest(v);
        }
        let counters = eh.counters();
        for pair in counters.windows(2) {
            proptest::prop_assert!(pair[0] >= pair[1], "counters not monotone: {counters:?}");
        }
    }

    /// Merging a fresh clone of the prototype is the additive identity:
    /// shard-merge idempotence at the bit level. This is exactly what
    /// the engine relies on for shards that received no batches.
    #[test]
    fn turnstile_merge_with_fresh_clone_is_identity(
        updates in proptest::collection::vec((0u64..150, -6i64..6), 0..250),
    ) {
        let proto = TurnstileHIndex::with_sampler_count(
            Epsilon::new(0.4).unwrap(),
            Delta::new(0.3).unwrap(),
            9,
            &mut StdRng::seed_from_u64(31),
        );
        let mut state = proto.clone();
        for &(i, d) in &updates {
            TurnstileEstimator::ingest(&mut state, i, d);
        }
        let before = state.frame_digest();
        state.merge(&proto);
        proptest::prop_assert_eq!(state.frame_digest(), before);
    }

    /// Merge is bitwise commutative for the linear turnstile stack —
    /// the property that makes the engine's merge order irrelevant.
    #[test]
    fn turnstile_merge_is_bitwise_commutative(
        updates in proptest::collection::vec((0u64..100, -5i64..5), 1..200),
        split in 0usize..200,
    ) {
        let proto = TurnstileHIndex::with_sampler_count(
            Epsilon::new(0.4).unwrap(),
            Delta::new(0.3).unwrap(),
            9,
            &mut StdRng::seed_from_u64(32),
        );
        let cut = split % updates.len();
        let mut a = proto.clone();
        let mut b = proto.clone();
        for &(i, d) in &updates[..cut] {
            TurnstileEstimator::ingest(&mut a, i, d);
        }
        for &(i, d) in &updates[cut..] {
            TurnstileEstimator::ingest(&mut b, i, d);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        proptest::prop_assert_eq!(ab.frame_digest(), ba.frame_digest());
    }

    /// Sparse recovery: a split stream merged back is bit-identical to
    /// the serial stream, and both decode to the same support. Every
    /// update and the merge run the grid-consistency assertions.
    #[test]
    fn sparse_recovery_split_merge_bit_identical(
        updates in proptest::collection::vec((0u64..40, -4i64..4), 0..120),
        parity in proptest::collection::vec(proptest::bool::ANY, 0..120),
    ) {
        let proto = SparseRecovery::new(5, 6, &mut StdRng::seed_from_u64(33));
        let mut whole = proto.clone();
        let mut left = proto.clone();
        let mut right = proto.clone();
        for (k, &(i, d)) in updates.iter().enumerate() {
            if d == 0 {
                continue;
            }
            whole.update(i, d);
            if *parity.get(k).unwrap_or(&false) {
                left.update(i, d);
            } else {
                right.update(i, d);
            }
        }
        left.merge(&right);
        proptest::prop_assert_eq!(left.frame_digest(), whole.frame_digest());
        proptest::prop_assert_eq!(left.decode(), whole.decode());
    }

    /// 1-sparse cells stay canonical and linear under cancellation:
    /// pushing a stream and its negation returns the cell to the empty
    /// state, bit for bit (the fingerprint invariant fires on every
    /// update along the way).
    #[test]
    fn one_sparse_cancellation_returns_to_zero_state(
        updates in proptest::collection::vec((0u64..1_000, 1i64..1_000), 1..60),
    ) {
        let empty = OneSparseRecovery::with_point(987_654_321);
        let mut cell = empty;
        for &(i, d) in &updates {
            cell.update(i, d);
        }
        for &(i, d) in &updates {
            cell.update(i, -d);
        }
        proptest::prop_assert_eq!(cell.frame_digest(), empty.frame_digest());
        proptest::prop_assert_eq!(cell.decode(), hindex_sketch::Recovery::Zero);
    }
}
