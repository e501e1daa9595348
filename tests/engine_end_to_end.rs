//! End-to-end tests of the sharded ingestion engine: for every
//! mergeable estimator, partitioning a stream across worker shards and
//! merging the shard states must reproduce what a single estimator
//! sees on the whole stream. Everything is seeded, so the sketch
//! comparisons are exact, not statistical.

use hindex::prelude::*;
use hindex_baseline::CashTable;
use hindex_common::SpaceUsage;
use hindex_common::Estimate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cash_stream() -> Vec<(u64, u64)> {
    // Mixed deltas over 350 papers, adversarially ordered (big papers
    // interleave with small ones).
    (0..7_000u64).map(|i| (i % 350, 1 + i % 3)).collect()
}

fn sketch_prototype(seed: u64) -> CashRegisterHIndex {
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.25).unwrap(),
        delta: Delta::new(0.1).unwrap(),
    };
    CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn exact_table_sharded_equals_serial() {
    let updates = cash_stream();
    let mut serial = CashTable::new();
    for &(p, z) in &updates {
        serial.ingest(p, z);
    }
    for shards in [1, 2, 3, 8] {
        let mut engine = ShardedEngine::new(EngineConfig::with_shards(shards), CashTable::new());
        engine.ingest_batch(&updates);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.estimate(), serial.estimate(), "shards {shards}");
    }
}

#[test]
fn sketch_sharded_state_identical_to_serial() {
    // Linear sketches with shared randomness: the merged shard state is
    // *bit-identical* to serial ingestion, so estimates AND the drawn
    // sampler outputs agree exactly.
    let updates = cash_stream();
    let prototype = sketch_prototype(11);
    let mut serial = prototype.clone();
    for &(p, z) in &updates {
        serial.ingest(p, z);
    }
    for shards in [1, 2, 4, 8] {
        let config = EngineConfig::builder().shards(shards).batch(512).build().unwrap();
        let mut engine = ShardedEngine::new(config, prototype.clone());
        engine.ingest_batch(&updates);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.estimate(), serial.estimate(), "shards {shards}");
        assert_eq!(merged.draw_samples(), serial.draw_samples(), "shards {shards}");
    }
}

#[test]
fn batch_size_does_not_change_the_answer() {
    // Per-batch coalescing reorders and combines same-paper deltas;
    // linearity makes that invisible in the final state.
    let updates = cash_stream();
    let prototype = sketch_prototype(23);
    let mut reference: Option<u64> = None;
    for batch_size in [1, 7, 256, 4096] {
        let config = EngineConfig::builder().shards(3).batch(batch_size).queue_depth(2).build().unwrap();
        let mut engine = ShardedEngine::new(config, prototype.clone());
        engine.ingest_batch(&updates);
        let estimate = engine.finish().unwrap().estimate();
        match reference {
            None => reference = Some(estimate),
            Some(r) => assert_eq!(r, estimate, "batch {batch_size}"),
        }
    }
}

#[test]
fn aggregate_round_robin_matches_serial() {
    // Aggregate model: values round-robin across shards; the
    // exponential histogram's counters are additive, so the merged
    // level vector is identical to serial ingestion.
    let eps = Epsilon::new(0.2).unwrap();
    let values: Vec<u64> = (0..5_000u64).map(|i| (i * 37) % 4_000 + 1).collect();
    let mut serial = ExponentialHistogram::new(eps);
    serial.ingest_batch(&values);
    let mut engine =
        ShardedEngine::new(EngineConfig::with_shards(4), ExponentialHistogram::new(eps));
    engine.ingest_batch(&values);
    let merged = engine.finish().unwrap();
    assert_eq!(merged.counters(), serial.counters());
    assert_eq!(merged.estimate(), serial.estimate());
}

#[test]
fn anytime_query_equals_prefix_and_ingestion_continues() {
    let updates = cash_stream();
    let (head, tail) = updates.split_at(3_000);
    let mut engine = ShardedEngine::new(EngineConfig::with_shards(2), CashTable::new());
    engine.ingest_batch(head);
    // query() flushes, so the snapshot covers exactly the prefix.
    let mut prefix = CashTable::new();
    for &(p, z) in head {
        prefix.ingest(p, z);
    }
    assert_eq!(engine.query().unwrap().estimate(), prefix.estimate());
    // The engine is still live: the tail lands on the same shards.
    engine.ingest_batch(tail);
    let mut whole = CashTable::new();
    for &(p, z) in &updates {
        whole.ingest(p, z);
    }
    assert_eq!(engine.finish().unwrap().estimate(), whole.estimate());
}

#[test]
fn same_stream_same_prototype_is_deterministic() {
    let updates = cash_stream();
    let run = || {
        let mut engine = ShardedEngine::new(EngineConfig::with_shards(4), sketch_prototype(5));
        engine.ingest_batch(&updates);
        engine.finish().unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.estimate(), b.estimate());
    assert_eq!(a.draw_samples(), b.draw_samples());
    assert_eq!(a.space_words(), b.space_words());
}

#[test]
fn routing_keeps_papers_on_one_shard() {
    // Sharding by paper is what lets per-shard coalescing work and
    // keeps any per-key invariant local to one worker: replaying the
    // engine's route() must give one shard per paper.
    let shards = 8;
    for paper in 0..350u64 {
        let first = (paper, 1u64).route(shards, 0);
        for tick in 1..50 {
            assert_eq!((paper, 1u64).route(shards, tick), first, "paper {paper}");
        }
    }
}
