//! Sharded-engine scenario: parallel ingestion of a citation firehose.
//!
//! The estimators are tiny; the stream is the bottleneck. The engine
//! partitions a cash-register stream by paper across worker threads,
//! each owning a clone of one seeded estimator, and answers queries —
//! at any time — by merging the shard states. Because every sketch in
//! Algorithm 6 is linear, the merged estimate is identical to what a
//! single estimator would have produced on the whole stream.
//!
//! ```sh
//! cargo run --release --example sharded_engine
//! ```

// The example prints elapsed wall time; it never reaches estimator state
// (see clippy.toml).
#![allow(clippy::disallowed_types)]

use hindex::prelude::*;
use hindex_baseline::CashTable;
use hindex_common::SpaceUsage;
use hindex_common::Estimate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // A corpus of 2 000 papers with Zipf citation totals, delivered as
    // a shuffled stream of small update events.
    let corpus = CorpusGenerator {
        n_authors: 1,
        productivity: ProductivityDist::Constant(2_000),
        citations: CitationDist::Zipf { exponent: 1.7, max: 20_000 },
        max_coauthors: 1,
        seed: 5,
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(42);
    let events = Unaggregator { max_batch: 3, shuffle: true }.stream(&corpus, &mut rng);
    let updates: Vec<(u64, u64)> = events.iter().map(|u| (u.paper.0, u.delta)).collect();
    println!("papers: {}, update events: {}", corpus.len(), updates.len());

    // One seeded prototype; the engine clones it per shard, so the
    // shards share randomness and merge exactly.
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.2).unwrap(),
        delta: Delta::new(0.1).unwrap(),
    };
    let prototype = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(7));

    // Serial reference: one estimator consuming events one at a time,
    // the way they arrive.
    let mut serial = prototype.clone();
    let start = Instant::now();
    for &(p, z) in &updates {
        serial.ingest(p, z);
    }
    let serial_time = start.elapsed();

    // Sharded: four workers behind bounded channels.
    let mut engine = ShardedEngine::new(EngineConfig::with_shards(4), prototype);
    let start = Instant::now();
    engine.ingest_batch(&updates);

    // Anytime query: ingestion keeps running afterwards.
    let snapshot = engine.query().unwrap();
    println!("anytime estimate : {}", snapshot.estimate());

    let merged = engine.finish().unwrap();
    let engine_time = start.elapsed();

    // Exact truth via the sharded exact baseline.
    let mut exact_engine = ShardedEngine::new(EngineConfig::with_shards(4), CashTable::new());
    exact_engine.ingest_batch(&updates);
    let exact = exact_engine.finish().unwrap();

    println!("exact h-index    : {}", exact.estimate());
    println!("serial estimate  : {} ({serial_time:.2?})", serial.estimate());
    println!("sharded estimate : {} ({engine_time:.2?})", merged.estimate());
    println!("sketch space     : {} words", merged.space_words());
    assert_eq!(
        serial.estimate(),
        merged.estimate(),
        "linear sketches: sharded merge must equal serial ingestion"
    );
}
