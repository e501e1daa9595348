//! Merge semantics: every linear sketch must satisfy
//! `merge(sketch(A), sketch(B)) ≡ sketch(A ++ B)` — the property that
//! makes the paper's algorithms usable over sharded/distributed
//! streams.

use hindex::prelude::*;
use hindex_baseline::CashTable;
use hindex_sketch::distinct::DistinctCounter;
use hindex_sketch::{Bjkst, CountMin, L0Sampler, OneSparseRecovery, SparseRecovery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn exponential_histogram_merge_equals_concat() {
    let eps = Epsilon::new(0.15).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let a_vals: Vec<u64> = (0..5_000).map(|_| rng.random_range(0..10_000)).collect();
    let b_vals: Vec<u64> = (0..3_000).map(|_| rng.random_range(0..500)).collect();

    let mut a = ExponentialHistogram::new(eps);
    let mut b = ExponentialHistogram::new(eps);
    a.extend_from(a_vals.iter().copied());
    b.extend_from(b_vals.iter().copied());
    a.merge(&b);

    let mut whole = ExponentialHistogram::new(eps);
    whole.extend_from(a_vals.iter().copied().chain(b_vals.iter().copied()));

    assert_eq!(a.estimate(), whole.estimate());
    assert_eq!(a.counters(), whole.counters());
}

#[test]
fn exponential_histogram_merge_asymmetric_levels() {
    // One shard saw only tiny values, the other only huge ones: the
    // merged level vector must cover the union.
    let eps = Epsilon::new(0.3).unwrap();
    let mut small = ExponentialHistogram::new(eps);
    let mut big = ExponentialHistogram::new(eps);
    small.extend_from([1u64, 2, 3]);
    big.extend_from([1_000_000u64; 5]);
    let mut merged_sb = small.clone();
    merged_sb.merge(&big);
    let mut merged_bs = big.clone();
    merged_bs.merge(&small);
    assert_eq!(merged_sb.counters(), merged_bs.counters());
}

#[test]
fn bjkst_merge_equals_concat_estimate() {
    let mut rng = StdRng::seed_from_u64(1);
    let proto = Bjkst::new(0.1, 0.01, &mut rng);

    let mut a = proto.clone();
    let mut b = proto.clone();
    let mut whole = proto.clone();
    for i in 0..30_000u64 {
        let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        whole.observe(key);
        if i % 2 == 0 {
            a.observe(key);
        } else {
            b.observe(key);
        }
        // Overlap: both shards see some common keys.
        if i % 10 == 0 {
            a.observe(key);
            b.observe(key);
        }
    }
    a.merge(&b);
    let (m, w) = (a.estimate() as f64, whole.estimate() as f64);
    // Same randomness, same retained-set semantics: the merged estimate
    // must be close to the single-stream estimate (levels can round
    // differently, so allow the ε-band around truth for both).
    assert!((m - 30_000.0).abs() <= 0.15 * 30_000.0, "merged {m}");
    assert!((w - 30_000.0).abs() <= 0.15 * 30_000.0, "whole {w}");
}

#[test]
fn countmin_merge_adds_counts() {
    let mut rng = StdRng::seed_from_u64(2);
    let proto = CountMin::new(64, 4, &mut rng);
    let mut a = proto.clone();
    let mut b = proto.clone();
    for k in 0..50u64 {
        a.add(k, k + 1);
        b.add(k, 2 * (k + 1));
    }
    a.merge(&b);
    for k in 0..50u64 {
        assert!(a.query(k) >= 3 * (k + 1), "key {k}");
    }
    assert_eq!(a.total(), 3 * (50 * 51 / 2));
}

#[test]
#[should_panic(expected = "share randomness")]
fn countmin_merge_rejects_foreign_sketch() {
    let mut a = CountMin::new(64, 4, &mut StdRng::seed_from_u64(3));
    let b = CountMin::new(64, 4, &mut StdRng::seed_from_u64(4));
    a.merge(&b);
}

#[test]
fn sparse_recovery_merge_with_cross_shard_cancellation() {
    let mut rng = StdRng::seed_from_u64(5);
    let proto = SparseRecovery::new(6, 6, &mut rng);
    let mut a = proto.clone();
    let mut b = proto.clone();
    a.update(10, 5);
    a.update(20, 3);
    b.update(10, -5); // deletion arrives on the other shard
    b.update(30, 7);
    a.merge(&b);
    assert_eq!(a.decode(), Some(vec![(20, 3), (30, 7)]));
}

#[test]
fn one_sparse_merge_linearity() {
    let mut a = OneSparseRecovery::with_point(777);
    let mut b = OneSparseRecovery::with_point(777);
    for i in 0..10 {
        a.update(42, i);
        b.update(42, 10 - i);
    }
    a.merge(&b);
    assert_eq!(
        a.decode(),
        hindex_sketch::Recovery::One { index: 42, value: 100 }
    );
}

#[test]
fn l0_sampler_merge_sees_both_shards() {
    let mut found_a_side = false;
    let mut found_b_side = false;
    for trial in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(trial + 100);
        let proto = L0Sampler::with_defaults(&mut rng);
        let mut a = proto.clone();
        let mut b = proto.clone();
        for i in 0..20u64 {
            a.update(i, 1);
            b.update(1000 + i, 1);
        }
        a.merge(&b);
        match a.sample() {
            Some((i, 1)) if i < 20 => found_a_side = true,
            Some((i, 1)) if i >= 1000 => found_b_side = true,
            Some(other) => panic!("bad sample {other:?}"),
            None => {}
        }
    }
    assert!(found_a_side && found_b_side, "merge lost a shard");
}

/// Folds shard states left-to-right through the [`Mergeable`] trait —
/// the same code path the engine uses, usable here for any estimator.
fn merge_shards<E: Mergeable>(mut shards: Vec<E>) -> E {
    let mut acc = shards.remove(0);
    for s in &shards {
        acc.merge(s);
    }
    acc
}

#[test]
fn turnstile_sharded_equals_single_stream_with_deletions() {
    // Deletions land on a *different* shard than the insertions they
    // cancel; linearity still makes the merged state identical to the
    // single-stream state.
    let mut rng = StdRng::seed_from_u64(21);
    let proto = TurnstileHIndex::with_sampler_count(
        Epsilon::new(0.4).unwrap(),
        Delta::new(0.3).unwrap(),
        27,
        &mut rng,
    );
    let mut updates: Vec<(u64, i64)> = (0..2_000u64).map(|i| (i % 120, 3)).collect();
    updates.extend((0..60u64).map(|p| (p, -3))); // retractions
    let mut whole = proto.clone();
    let mut shards: Vec<TurnstileHIndex> = (0..3).map(|_| proto.clone()).collect();
    for (k, &(i, d)) in updates.iter().enumerate() {
        whole.update(i, d);
        shards[k % 3].update(i, d);
    }
    let merged = merge_shards(shards);
    assert_eq!(merged.estimate(), whole.estimate());
}

#[test]
#[should_panic(expected = "config mismatch")]
fn turnstile_merge_rejects_mismatched_geometry() {
    let mut rng = StdRng::seed_from_u64(22);
    let eps = Epsilon::new(0.4).unwrap();
    let delta = Delta::new(0.3).unwrap();
    let mut a = TurnstileHIndex::with_sampler_count(eps, delta, 9, &mut rng);
    let b = TurnstileHIndex::with_sampler_count(eps, delta, 11, &mut rng);
    a.merge(&b);
}

#[test]
fn heavy_hitters_sharded_decode_finds_planted_authors() {
    // Algorithm 8 is built from linear counters plus per-level author
    // reservoirs, so merged shards answer like one detector: the
    // planted heavy authors must survive a 2-way shard split.
    let corpus = hindex_stream::generator::planted_heavy_hitters(&[80, 60], 60, 4, 2, 1);
    let truth = corpus.ground_truth();
    let expected = truth.heavy_hitters(0.2);
    assert!(!expected.is_empty());
    let mut found = 0;
    let trials = 8;
    for seed in 0..trials {
        let params = HeavyHittersParams::new(
            Epsilon::new(0.2).unwrap(),
            Delta::new(0.05).unwrap(),
        );
        let proto = HeavyHitters::new(params, &mut StdRng::seed_from_u64(seed));
        let mut shards = vec![proto.clone(), proto];
        for (k, p) in corpus.papers().iter().enumerate() {
            shards[k % 2].push(p);
        }
        let merged = merge_shards(shards);
        let out = merged.decode();
        if expected.iter().all(|&(a, _)| out.iter().any(|c| c.author == a)) {
            found += 1;
        }
    }
    assert!(found >= trials - 2, "full recall in only {found}/{trials} merged runs");
}

#[test]
#[should_panic(expected = "hash randomness")]
fn heavy_hitters_merge_rejects_foreign_randomness() {
    let params = HeavyHittersParams::new(
        Epsilon::new(0.25).unwrap(),
        Delta::new(0.1).unwrap(),
    );
    let mut a = HeavyHitters::new(params, &mut StdRng::seed_from_u64(1));
    let b = HeavyHitters::new(params, &mut StdRng::seed_from_u64(2));
    a.merge(&b);
}

#[test]
fn g_index_sharded_equals_single_stream() {
    let eps = Epsilon::new(0.2).unwrap();
    let values: Vec<u64> = (0..4_000u64).map(|i| (i * 13) % 900 + 1).collect();
    let mut whole = StreamingGIndex::new(eps);
    let mut shards: Vec<StreamingGIndex> = (0..4).map(|_| StreamingGIndex::new(eps)).collect();
    for (k, &v) in values.iter().enumerate() {
        whole.ingest(v);
        shards[k % 4].ingest(v);
    }
    let merged = merge_shards(shards);
    assert_eq!(merged.estimate(), whole.estimate());
}

#[test]
fn cash_register_sharded_equals_single_stream() {
    let corpus = hindex_stream::generator::planted_h_corpus(25, 80, 9);
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.25).unwrap(),
        delta: Delta::new(0.1).unwrap(),
    };
    let mut rng = StdRng::seed_from_u64(7);
    let proto = CashRegisterHIndex::new(params, &mut rng);

    let updates = Unaggregator::default().stream(&corpus, &mut rng);
    // Single-stream reference.
    let mut whole = proto.clone();
    for u in &updates {
        whole.ingest(u.paper.0, u.delta);
    }
    // Four shards, round-robin.
    let mut shards: Vec<CashRegisterHIndex> = (0..4).map(|_| proto.clone()).collect();
    for (i, u) in updates.iter().enumerate() {
        shards[i % 4].ingest(u.paper.0, u.delta);
    }
    let mut merged = shards.remove(0);
    for s in &shards {
        merged.merge(s);
    }
    // Linear sketches: identical randomness + same total updates ⇒
    // identical internal state ⇒ identical estimates and samples.
    assert_eq!(merged.estimate(), whole.estimate());
    assert_eq!(merged.draw_samples(), whole.draw_samples());
}

/// The hot-path kernels (windowed power ladders, term-sharing)
/// promise **bit-identical** states to the legacy square-and-multiply
/// path: same seeds in, same field elements out. Drive one sketch
/// through the ladder-backed scalar path and one through per-update
/// `mersenne_pow` (the pre-kernel computation), then compare full
/// states, decodes, and cross-path merges.
#[test]
fn kernel_paths_bit_identical_to_legacy_square_and_multiply() {
    use hindex_hashing::mersenne_pow;

    let proto = SparseRecovery::new(6, 6, &mut StdRng::seed_from_u64(4242));
    let point = proto.ladder().base();
    // ≤ 6 distinct coordinates (decodable at s = 6), hit repeatedly
    // with mixed-sign deltas so fingerprints see real cancellation.
    let updates: Vec<(u64, i64)> = (0..64u64)
        .map(|k| ((k % 6) * 977 + 3, (k % 11) as i64 - 5))
        .filter(|&(_, d)| d != 0)
        .collect();

    let mut ladder = proto.clone();
    let mut legacy = proto.clone();
    for &(i, d) in &updates {
        ladder.update(i, d);
        legacy.update_with_power(i, d, mersenne_pow(point, i));
    }

    // Full-state equality (grid cells, checksum, fingerprints): the
    // Debug rendering exposes every field element.
    assert_eq!(format!("{ladder:?}"), format!("{legacy:?}"));

    // Merging across paths is exact: each side carried the same state,
    // so either order doubles every coordinate identically.
    let mut ladder_merged = ladder.clone();
    ladder_merged.merge(&legacy);
    let mut legacy_merged = legacy.clone();
    legacy_merged.merge(&ladder);
    assert_eq!(format!("{ladder_merged:?}"), format!("{legacy_merged:?}"));

    // And the decodes agree (merge-doubled values included).
    assert_eq!(ladder.decode(), legacy.decode());
    assert_eq!(ladder_merged.decode(), legacy_merged.decode());
    assert!(legacy.decode().is_some(), "decode failed on ≤ 6-sparse input");
}

#[test]
fn cash_table_merge_equals_concatenation_exactly() {
    // The exact baseline is deterministic and order-insensitive, so a
    // sharded run must agree with the single stream on *every* exposed
    // quantity, not just within tolerance.
    let updates: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k % 173, 1 + k % 5)).collect();
    let mut whole = CashTable::new();
    let mut shards: Vec<CashTable> = (0..3).map(|_| CashTable::new()).collect();
    for (k, &(i, d)) in updates.iter().enumerate() {
        whole.ingest(i, d);
        shards[k % 3].ingest(i, d);
    }
    let merged = merge_shards(shards);
    assert_eq!(merged.estimate(), whole.estimate());
    assert_eq!(merged.distinct(), whole.distinct());
    for paper in 0..173u64 {
        assert_eq!(merged.count(paper), whole.count(paper), "paper {paper}");
    }
}

#[test]
fn one_heavy_hitter_merge_preserves_dominant_author() {
    // Algorithm 7's histogram merges exactly; the per-level reservoirs
    // merge distributionally. A planted dominant author must therefore
    // survive a 2-way shard split in (nearly) every seeded run.
    let corpus = hindex_stream::generator::planted_heavy_hitters(&[90], 10, 2, 2, 5);
    let truth_h = corpus.ground_truth().per_author[&AuthorId(0)];
    let trials = 8;
    let mut found = 0;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed);
        let proto = OneHeavyHitter::new(Epsilon::new(0.2).unwrap(), 0.05, &mut rng);
        let mut shards = vec![proto.clone(), proto];
        for (k, p) in corpus.papers().iter().enumerate() {
            shards[k % 2].push(p);
        }
        let merged = merge_shards(shards);
        if let OneHeavyHitterOutcome::Author { author, h_estimate } = merged.decode() {
            assert_eq!(author, AuthorId(0));
            assert!(h_estimate <= truth_h, "estimate {h_estimate} above truth {truth_h}");
            if h_estimate as f64 >= 0.7 * truth_h as f64 {
                found += 1;
            }
        }
    }
    assert!(found >= trials - 2, "dominant author survived only {found}/{trials} merges");
}

#[test]
#[should_panic(expected = "share epsilon")]
fn one_heavy_hitter_merge_rejects_mismatched_epsilon() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut a = OneHeavyHitter::new(Epsilon::new(0.2).unwrap(), 0.05, &mut rng);
    let b = OneHeavyHitter::new(Epsilon::new(0.4).unwrap(), 0.05, &mut rng);
    a.merge(&b);
}

/// Same contract one level down: a 1-sparse cell updated via a shared
/// ladder's powers matches one recomputing `rⁱ` per update.
#[test]
fn one_sparse_ladder_updates_match_internal_pow() {
    use hindex_hashing::PowerLadder;

    let point = 987_654_321u64;
    let ladder = PowerLadder::new(point);
    let mut via_ladder = OneSparseRecovery::with_point(point);
    let mut via_pow = OneSparseRecovery::with_point(point);
    for i in 0..200u64 {
        let (idx, d) = (i * 31 % 1000, (i % 5) as i64 - 2);
        via_ladder.update_with_power(idx, d, ladder.pow(idx));
        via_pow.update(idx, d);
    }
    assert_eq!(format!("{via_ladder:?}"), format!("{via_pow:?}"));
    assert_eq!(via_ladder.decode(), via_pow.decode());
}
