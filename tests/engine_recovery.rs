//! Crash recovery: a killed engine restored from its last checkpoint
//! and replayed from the recorded stream offset must reach the same
//! state as an engine that never crashed — identical estimates,
//! samples and `frame_digest`.

use hindex::prelude::*;
use hindex_baseline::CashTable;
use hindex_common::snapshot::Snapshot;
use hindex_core::{CashRegisterHIndex, CashRegisterParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(shards: usize) -> EngineConfig {
    EngineConfig::builder().shards(shards).batch(32).build().unwrap()
}

fn stream(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| ((k * 17) % 300, 1 + k % 3)).collect()
}

fn sketch_proto(seed: u64) -> CashRegisterHIndex {
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.3).unwrap(),
        delta: Delta::new(0.2).unwrap(),
    };
    CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(seed))
}

/// Runs the crash drill for one estimator type and returns the
/// uninterrupted and the recovered final states.
fn crash_and_recover<E>(proto: E, shards: usize, updates: &[(u64, u64)]) -> (E, E)
where
    E: BatchIngest<(u64, u64)> + Clone + Mergeable + Snapshot + Estimate + SpaceUsage + Send + Sync + 'static,
{
    // Reference: one engine sees the whole stream, never interrupted.
    let mut reference = ShardedEngine::new(config(shards), proto.clone());
    reference.ingest_batch(updates);
    let reference = reference.finish().expect("reference run");

    // Victim: ingests a prefix, checkpoints to *bytes* (as a real
    // process would persist to disk), keeps running past the
    // checkpoint, then "crashes" — everything after the checkpoint is
    // lost, including any state still buffered in worker channels.
    let cut = updates.len() / 2;
    let mut victim = ShardedEngine::new(config(shards), proto);
    victim.ingest_batch(&updates[..cut]);
    let checkpoint = victim.checkpoint().expect("checkpoint");
    assert_eq!(checkpoint.stream_offset(), cut as u64);
    let frame = checkpoint.to_bytes();
    victim.ingest_batch(&updates[cut..cut + cut / 2]); // lost work
    drop(victim); // the crash

    // Recovery: decode the persisted frame, respawn, and replay the
    // input stream from the recorded offset.
    let (restored_cp, used) =
        hindex_engine::EngineCheckpoint::<E>::read_from(&frame).expect("decode checkpoint");
    assert_eq!(used, frame.len());
    assert_eq!(restored_cp.stream_offset(), cut as u64);
    let mut recovered = ShardedEngine::restore(restored_cp).expect("valid checkpoint");
    assert_eq!(recovered.stream_offset(), cut as u64);
    recovered.ingest_batch(&updates[cut..]);
    let recovered = recovered.finish().expect("recovered run");
    (reference, recovered)
}

#[test]
fn recovered_exact_engine_matches_uninterrupted_run_exactly() {
    let updates = stream(4_000);
    for shards in [1, 2, 5] {
        let (reference, recovered) = crash_and_recover(CashTable::new(), shards, &updates);
        assert_eq!(recovered.estimate(), reference.estimate(), "shards {shards}");
        assert_eq!(recovered.distinct(), reference.distinct(), "shards {shards}");
        for paper in 0..300u64 {
            assert_eq!(
                recovered.count(paper),
                reference.count(paper),
                "shards {shards}, paper {paper}"
            );
        }
    }
}

#[test]
fn recovered_sketch_engine_matches_uninterrupted_run() {
    let updates = stream(3_000);
    for shards in [1, 3] {
        let (reference, recovered) = crash_and_recover(sketch_proto(42), shards, &updates);
        // The sketch is a deterministic function of (randomness, multiset
        // of per-shard updates); restore + replay routes every update to
        // the same shard as the reference, so the merged states agree on
        // every observable, not just within tolerance.
        assert_eq!(recovered.estimate(), reference.estimate(), "shards {shards}");
        assert_eq!(recovered.draw_samples(), reference.draw_samples(), "shards {shards}");
        assert_eq!(
            recovered.frame_digest(),
            reference.frame_digest(),
            "shards {shards}: digests diverged"
        );
    }
}

#[test]
fn checkpoint_at_zero_replays_everything() {
    let updates = stream(1_000);
    let mut victim = ShardedEngine::new(config(2), sketch_proto(7));
    let checkpoint = victim.checkpoint().expect("empty checkpoint");
    assert_eq!(checkpoint.stream_offset(), 0);
    let frame = checkpoint.to_bytes();
    drop(victim);

    let mut reference = ShardedEngine::new(config(2), sketch_proto(7));
    reference.ingest_batch(&updates);
    let reference = reference.finish().unwrap();

    let (cp, _) =
        hindex_engine::EngineCheckpoint::<CashRegisterHIndex>::read_from(&frame).unwrap();
    let mut recovered = ShardedEngine::restore(cp).unwrap();
    recovered.ingest_batch(&updates);
    let recovered = recovered.finish().unwrap();
    assert_eq!(recovered.estimate(), reference.estimate());
    assert_eq!(recovered.draw_samples(), reference.draw_samples());
}

#[test]
fn chained_checkpoints_recover_after_repeated_crashes() {
    // Crash twice: checkpoint A at 1/3, restore, checkpoint B at 2/3
    // (taken by the *restored* engine), restore again, finish. State
    // must still match the never-crashed run.
    let updates = stream(3_000);
    let third = updates.len() / 3;

    let mut reference = ShardedEngine::new(config(3), sketch_proto(9));
    reference.ingest_batch(&updates);
    let reference = reference.finish().unwrap();

    let mut first = ShardedEngine::new(config(3), sketch_proto(9));
    first.ingest_batch(&updates[..third]);
    let frame_a = first.checkpoint().unwrap().to_bytes();
    drop(first);

    let (cp_a, _) =
        hindex_engine::EngineCheckpoint::<CashRegisterHIndex>::read_from(&frame_a).unwrap();
    let mut second = ShardedEngine::restore(cp_a).unwrap();
    second.ingest_batch(&updates[third..2 * third]);
    let frame_b = second.checkpoint().unwrap().to_bytes();
    drop(second);

    let (cp_b, _) =
        hindex_engine::EngineCheckpoint::<CashRegisterHIndex>::read_from(&frame_b).unwrap();
    assert_eq!(cp_b.stream_offset(), 2 * third as u64);
    let mut third_run = ShardedEngine::restore(cp_b).unwrap();
    third_run.ingest_batch(&updates[2 * third..]);
    let recovered = third_run.finish().unwrap();

    assert_eq!(recovered.estimate(), reference.estimate());
    assert_eq!(recovered.draw_samples(), reference.draw_samples());
    assert_eq!(recovered.frame_digest(), reference.frame_digest());
}

#[test]
fn restore_preserves_engine_geometry() {
    let mut engine = ShardedEngine::new(config(4), CashTable::new());
    engine.ingest_batch(&stream(100));
    let checkpoint = engine.checkpoint().unwrap();
    assert_eq!(checkpoint.config().shards, 4);
    assert_eq!(checkpoint.shard_states().len(), 4);
    engine.finish().unwrap();

    let restored = ShardedEngine::restore(checkpoint).unwrap();
    assert_eq!(restored.config().shards, 4);
    restored.finish().unwrap();
}

/// A valid encoded checkpoint frame for tamper tests.
fn exact_frame(shards: usize) -> Vec<u8> {
    let mut engine = ShardedEngine::new(config(shards), CashTable::new());
    engine.ingest_batch(&stream(200));
    let checkpoint = engine.checkpoint().unwrap();
    engine.finish().unwrap();
    checkpoint.to_bytes()
}

/// Overwrites the shard-count field (first payload word, after the
/// 14-byte HIXS header) and repairs the trailing checksum, so only the
/// geometry validation can reject the frame.
fn tamper_shard_count(frame: &mut [u8], shards: u64) {
    frame[14..22].copy_from_slice(&shards.to_le_bytes());
    let split = frame.len() - 8;
    let sum = hindex_common::snapshot::fnv1a(&frame[..split]);
    frame[split..].copy_from_slice(&sum.to_le_bytes());
}

// Regression: a checkpoint claiming more shard states than its payload
// holds used to reach the spawn path's internal assertions; it must be
// a typed decode error, never a panic.
#[test]
fn hostile_shard_count_is_a_decode_error_not_a_panic() {
    let mut frame = exact_frame(3);
    tamper_shard_count(&mut frame, 1_000_000);
    let err = hindex_engine::EngineCheckpoint::<CashTable>::read_from(&frame).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("shard count"), "{msg}");
}

#[test]
fn zeroed_geometry_is_a_decode_error_not_a_panic() {
    let mut frame = exact_frame(3);
    tamper_shard_count(&mut frame, 0);
    let err = hindex_engine::EngineCheckpoint::<CashTable>::read_from(&frame).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("positive"), "{msg}");
}

// Regression: re-attaching an observer sized for the wrong shard count
// used to trip `assert!`s inside spawn; `restore` now validates and
// returns `EngineError::InvalidConfig`.
#[test]
fn restore_rejects_missized_observer() {
    let frame = exact_frame(3);
    let (cp, _) = hindex_engine::EngineCheckpoint::<CashTable>::read_from(&frame).unwrap();
    let wrong = std::sync::Arc::new(EngineObserver::new(2));
    let err = match ShardedEngine::restore(cp.with_observer(wrong)) {
        Ok(_) => panic!("restore accepted a mis-sized observer"),
        Err(err) => err,
    };
    assert!(
        matches!(err, EngineError::InvalidConfig { .. }),
        "want InvalidConfig, got {err:?}"
    );
    assert!(err.to_string().contains("observer"), "{err}");
}
