//! Deterministic-schedule stress test for the sharded engine.
//!
//! The engine's concurrency argument (see `crates/engine/src/lib.rs`,
//! "Concurrency audit") is that (1) each shard sees its sub-stream in
//! FIFO order, and (2) *any* cross-shard interleaving of those
//! sub-streams merges to the same bits, because every estimator's state
//! is commutative and exact. Thread schedules cannot be forced from
//! safe code, so this suite replays the engine's own routing
//! single-threaded under **seeded schedules**: for ≥ 8 seeds it draws a
//! random batch interleaving (preserving per-shard FIFO) and a random
//! merge order, and asserts the merged state is bit-identical to the
//! serial run and to the real multi-threaded [`ShardedEngine`].
//!
//! Bit-identity is asserted on full observable state (exact counts,
//! counter vectors) and on `frame_digest()` fingerprints.

use hindex::prelude::*;
use hindex_baseline::CashTable;
use hindex_common::Snapshot;
use hindex_engine::{mix64, EngineConfig, ShardedEngine};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 10;
const SHARDS: usize = 4;
const BATCH: usize = 32;

/// Splits a key-routed stream into per-shard FIFO batch queues exactly
/// the way the engine's router does (`mix64(key) % shards`, batches of
/// `batch` in arrival order).
fn key_routed_batches<T: Copy>(
    items: &[T],
    key: impl Fn(&T) -> u64,
    shards: usize,
    batch: usize,
) -> Vec<Vec<Vec<T>>> {
    let mut queues: Vec<Vec<T>> = vec![Vec::new(); shards];
    for item in items {
        queues[(mix64(key(item)) % shards as u64) as usize].push(*item);
    }
    queues
        .into_iter()
        .map(|q| q.chunks(batch).map(<[T]>::to_vec).collect())
        .collect()
}

/// Round-robin routing for aggregate (`u64`) items: the engine's tick
/// counter is the stream position.
fn round_robin_batches(items: &[u64], shards: usize, batch: usize) -> Vec<Vec<Vec<u64>>> {
    let mut queues: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for (tick, &v) in items.iter().enumerate() {
        queues[tick % shards].push(v);
    }
    queues
        .into_iter()
        .map(|q| q.chunks(batch).map(<[u64]>::to_vec).collect())
        .collect()
}

/// Replays the per-shard batch queues in a seeded random interleaving
/// that preserves each shard's FIFO order, applying each batch to that
/// shard's estimator clone. Returns the final per-shard states.
fn replay_schedule<E: Clone, T>(
    prototype: &E,
    queues: &[Vec<Vec<T>>],
    mut ingest: impl FnMut(&mut E, &[T]),
    rng: &mut StdRng,
) -> Vec<E> {
    let mut states: Vec<E> = (0..queues.len()).map(|_| prototype.clone()).collect();
    let mut next = vec![0usize; queues.len()];
    let total: usize = queues.iter().map(Vec::len).sum();
    for _ in 0..total {
        let live: Vec<usize> = (0..queues.len())
            .filter(|&s| next[s] < queues[s].len())
            .collect();
        let shard = live[rng.random_range(0..live.len())];
        ingest(&mut states[shard], &queues[shard][next[shard]]);
        next[shard] += 1;
    }
    states
}

/// Merges shard states in the given order (empty shards included, as
/// the engine's workers return untouched clones).
fn merge_in_order<E: Mergeable + Clone>(states: &[E], order: &[usize]) -> E {
    let mut acc = states[order[0]].clone();
    for &i in &order[1..] {
        acc.merge(&states[i]);
    }
    acc
}

fn shuffled_order(shards: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards).collect();
    order.shuffle(rng);
    order
}

#[test]
fn cash_table_bit_identical_across_schedules() {
    // Skewed key-routed stream with heavy papers and a long tail.
    let updates: Vec<(u64, u64)> = (0..4_000u64)
        .map(|k| if k % 3 == 0 { (k % 17, 2) } else { (k % 997, 1) })
        .collect();
    let mut serial = CashTable::new();
    for &(i, d) in &updates {
        serial.ingest(i, d);
    }

    let config = EngineConfig::builder().shards(SHARDS).batch(BATCH).queue_depth(2).build().unwrap();
    let mut engine = ShardedEngine::new(config, CashTable::new());
    engine.ingest_batch(&updates);
    let threaded = engine.finish().unwrap();
    assert_eq!(threaded.estimate(), serial.estimate());
    assert_eq!(threaded.distinct(), serial.distinct());

    let queues = key_routed_batches(&updates, |u| u.0, SHARDS, BATCH);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let states = replay_schedule(
            &CashTable::new(),
            &queues,
            |e, batch| {
                for &(i, d) in batch {
                    e.ingest(i, d);
                }
            },
            &mut rng,
        );
        let merged = merge_in_order(&states, &shuffled_order(SHARDS, &mut rng));
        // Bit identity of the full observable state: every exact count.
        assert_eq!(merged.estimate(), serial.estimate(), "seed {seed}");
        assert_eq!(merged.distinct(), serial.distinct(), "seed {seed}");
        for paper in 0..997u64 {
            assert_eq!(merged.count(paper), serial.count(paper), "seed {seed} paper {paper}");
        }
    }
}

#[test]
fn exponential_histogram_bit_identical_across_schedules() {
    let values: Vec<u64> = (0..3_000u64).map(|k| (k * 7919) % 50_000).collect();
    let mut serial = ExponentialHistogram::new(Epsilon::new(0.2).unwrap());
    serial.ingest_batch(&values);

    let config = EngineConfig::builder().shards(SHARDS).batch(BATCH).queue_depth(2).build().unwrap();
    let mut engine = ShardedEngine::new(
        config,
        ExponentialHistogram::new(Epsilon::new(0.2).unwrap()),
    );
    engine.ingest_batch(&values);
    let threaded = engine.finish().unwrap();
    assert_eq!(threaded.counters(), serial.counters());

    let queues = round_robin_batches(&values, SHARDS, BATCH);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let states = replay_schedule(
            &ExponentialHistogram::new(Epsilon::new(0.2).unwrap()),
            &queues,
            |e, batch| e.ingest_batch(batch),
            &mut rng,
        );
        let merged = merge_in_order(&states, &shuffled_order(SHARDS, &mut rng));
        // The counter vector is the sketch's entire level state.
        assert_eq!(merged.counters(), serial.counters(), "seed {seed}");
        assert_eq!(merged.estimate(), serial.estimate(), "seed {seed}");
        assert_eq!(merged.frame_digest(), serial.frame_digest(), "seed {seed}");
        assert_eq!(threaded.frame_digest(), serial.frame_digest());
    }
}

#[test]
fn turnstile_bit_identical_across_schedules_with_retractions() {
    // Inserts and their retractions deliberately land in different
    // batches (and, under key routing, the same shard — but schedules
    // reorder *across* shards arbitrarily).
    let mut updates: Vec<(u64, i64)> = (0..2_400u64).map(|k| (k % 160, 5)).collect();
    updates.extend((0..80u64).map(|p| (p, -5)));
    let proto = TurnstileHIndex::with_sampler_count(
        Epsilon::new(0.4).unwrap(),
        Delta::new(0.3).unwrap(),
        15,
        &mut StdRng::seed_from_u64(4242),
    );
    let mut serial = proto.clone();
    for &(i, d) in &updates {
        TurnstileEstimator::ingest(&mut serial, i, d);
    }

    let config = EngineConfig::builder().shards(SHARDS).batch(BATCH).queue_depth(2).build().unwrap();
    let mut engine = ShardedEngine::new(config, proto.clone());
    engine.ingest_batch(&updates);
    let threaded = engine.finish().unwrap();
    assert_eq!(threaded.estimate(), serial.estimate());

    let queues = key_routed_batches(&updates, |u| u.0, SHARDS, BATCH);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let states = replay_schedule(
            &proto,
            &queues,
            |e, batch| e.update_batch(batch),
            &mut rng,
        );
        let merged = merge_in_order(&states, &shuffled_order(SHARDS, &mut rng));
        assert_eq!(merged.estimate(), serial.estimate(), "seed {seed}");
        // Linear sketches over an exact field: the merged internal
        // state (every sampler cell, every norm core) is bit-identical
        // to the serial stream's, whatever the schedule.
        assert_eq!(merged.frame_digest(), serial.frame_digest(), "seed {seed}");
        assert_eq!(threaded.frame_digest(), serial.frame_digest());
    }
}

/// The schedule replay must route exactly like the engine, or the
/// comparison above proves nothing: pin the router's key→shard map.
#[test]
fn replay_routing_matches_engine_routing() {
    use hindex_engine::Routable;
    for paper in 0..500u64 {
        let expected = (mix64(paper) % SHARDS as u64) as usize;
        assert_eq!((paper, 1u64).route(SHARDS, 99), expected);
        assert_eq!((paper, -1i64).route(SHARDS, 7), expected);
    }
    for tick in 0..500u64 {
        assert_eq!(42u64.route(SHARDS, tick), (tick % SHARDS as u64) as usize);
    }
}
