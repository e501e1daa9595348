//! The read plane's contract, end to end.
//!
//! Three guarantees, checked against a serial single-threaded
//! reference:
//!
//! 1. **Bit-identity.** Every view a reader can observe is the *exact*
//!    serial prefix of the stream at the view's recorded offset — same
//!    [`Snapshot`] frame digest — however many shards, whatever the
//!    batch size or publish cadence.
//! 2. **No torn views, monotone epochs.** Concurrent readers on cloned
//!    [`ReadHandle`]s never see a half-merged state and never see the
//!    epoch go backwards, even while ingestion and publishing run at
//!    full speed.
//! 3. **Honest staleness.** `QueryReport::epoch`/`staleness` from a
//!    handle report exactly how far the stream has moved past the
//!    answering view.

use hindex::baseline::CashTable;
use hindex::prelude::*;
use hindex_common::snapshot::Snapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn stream(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| ((k * 13) % 170, 1 + k % 2)).collect()
}

/// Frame digest of a serial (single-threaded, unsharded) run over
/// every prefix of `updates`: `out[k]` is the digest after exactly `k`
/// items. The exact table's canonical serialisation makes this the
/// reference any shard-merged state must hit bit for bit.
fn prefix_digests(updates: &[(u64, u64)]) -> Vec<u64> {
    let mut table = CashTable::new();
    let mut out = Vec::with_capacity(updates.len() + 1);
    out.push(table.frame_digest());
    for &(p, d) in updates {
        table.ingest(p, d);
        out.push(table.frame_digest());
    }
    out
}

fn config(shards: usize, batch: usize, publish_interval: u64) -> EngineConfig {
    EngineConfig::builder()
        .shards(shards)
        .batch(batch)
        .publish_interval(publish_interval)
        .build()
        .unwrap()
}

#[test]
fn concurrent_readers_observe_only_exact_serial_prefixes() {
    let updates = stream(4_000);
    let prefixes = Arc::new(prefix_digests(&updates));
    let mut engine = ShardedEngine::new(config(3, 16, 128), CashTable::new());
    let handle = engine.read_handle().expect("publish_interval set");
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let (h, s, prefixes) = (handle.clone(), Arc::clone(&stop), Arc::clone(&prefixes));
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut observed = 0u64;
                loop {
                    // One more read after seeing `stop`: a reader whose
                    // last read predates the final install must still
                    // reach the final view.
                    let stopping = s.load(Ordering::Acquire);
                    if let Some(view) = h.query() {
                        assert!(
                            view.epoch() >= last_epoch,
                            "epoch regressed: {} after {last_epoch}",
                            view.epoch()
                        );
                        last_epoch = view.epoch();
                        let offset = view.offset() as usize;
                        assert_eq!(
                            view.estimator().frame_digest(),
                            prefixes[offset],
                            "view at offset {offset} is not the exact serial prefix"
                        );
                        observed += 1;
                    }
                    if stopping {
                        break;
                    }
                    std::thread::yield_now();
                }
                (observed, last_epoch)
            })
        })
        .collect();

    engine.ingest_batch(&updates);
    let final_epoch = engine.publish_now().expect("engine has a read plane");
    assert!(handle.wait_for_epoch(final_epoch, 10_000), "final publish never completed");
    stop.store(true, Ordering::Release);
    for reader in readers {
        let (observed, last_epoch) = reader.join().unwrap();
        assert!(observed > 0, "reader never saw a view");
        assert_eq!(last_epoch, final_epoch, "reader stopped before the final view");
    }

    // The forced final view covers the whole stream, with no staleness,
    // and matches the strict synchronous merge bit for bit.
    let view = handle.query().unwrap();
    assert_eq!(view.offset(), updates.len() as u64);
    assert_eq!(view.staleness(), 0);
    assert_eq!(view.estimator().frame_digest(), *prefixes.last().unwrap());
    let merged = engine.finish().unwrap();
    assert_eq!(merged.frame_digest(), *prefixes.last().unwrap());
}

#[test]
fn handle_reports_epoch_and_staleness_honestly() {
    let updates = stream(1_000);
    // Interval far past the stream: only explicit publishes fire.
    let mut engine = ShardedEngine::new(config(2, 16, 1 << 40), CashTable::new());
    let handle = engine.read_handle().unwrap();
    assert!(handle.query().is_none(), "no view before the first publish");
    assert!(handle.report(None).is_none());

    engine.ingest_batch(&updates[..600]);
    let epoch = engine.publish_now().unwrap();
    assert!(handle.wait_for_epoch(epoch, 5_000));
    let report = handle.report(None).unwrap();
    assert_eq!(report.epoch, Some(epoch));
    assert_eq!(report.staleness, 0);
    assert_eq!(report.estimate, {
        let mut t = CashTable::new();
        for &(p, d) in &updates[..600] {
            t.ingest(p, d);
        }
        t.estimate()
    });

    // The stream moves on without a publish: the answering view stays
    // pinned at its epoch and the report says exactly how far behind.
    engine.ingest_batch(&updates[600..]);
    engine.flush();
    let report = handle.report(None).unwrap();
    assert_eq!(report.epoch, Some(epoch));
    assert_eq!(report.staleness, 400);
    assert_eq!(handle.stream_offset(), 1_000);
    engine.finish().unwrap();
}

#[test]
fn read_handle_outlives_the_engine() {
    let updates = stream(500);
    let mut engine = ShardedEngine::new(config(2, 16, 100), CashTable::new());
    let handle = engine.read_handle().unwrap();
    engine.ingest_batch(&updates);
    let epoch = engine.publish_now().unwrap();
    assert!(handle.wait_for_epoch(epoch, 5_000));
    let serial = prefix_digests(&updates);
    drop(engine.finish().unwrap());
    // The cell is shared by `Arc`: retired engines leave the last
    // published view queryable.
    let view = handle.query().unwrap();
    assert_eq!(view.offset(), 500);
    assert_eq!(view.estimator().frame_digest(), *serial.last().unwrap());
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// For ANY geometry (shards × batch × cadence): every view
    /// observable mid-stream is an exact serial prefix, epochs are
    /// monotone, staleness is exact, and the forced final view covers
    /// the whole stream.
    #[test]
    fn any_geometry_publishes_exact_prefixes(
        shards in 1usize..5,
        batch in 1usize..40,
        interval in 1u64..400,
        n in 100u64..1200,
    ) {
        let updates = stream(n);
        let prefixes = prefix_digests(&updates);
        let mut engine = ShardedEngine::new(config(shards, batch, interval), CashTable::new());
        let handle = engine.read_handle().unwrap();
        let mut last_epoch = 0u64;
        for chunk in updates.chunks(97) {
            engine.ingest_batch(chunk);
            if let Some(view) = handle.query() {
                proptest::prop_assert!(view.epoch() >= last_epoch, "epoch regressed");
                last_epoch = view.epoch();
                let offset = view.offset() as usize;
                proptest::prop_assert_eq!(
                    view.estimator().frame_digest(),
                    prefixes[offset],
                    "torn or stale-offset view at offset {}", offset
                );
                proptest::prop_assert_eq!(
                    view.staleness(),
                    handle.stream_offset() - view.offset()
                );
            }
        }
        let epoch = engine.publish_now().unwrap();
        proptest::prop_assert!(handle.wait_for_epoch(epoch, 10_000));
        let view = handle.query().unwrap();
        proptest::prop_assert!(view.epoch() >= last_epoch);
        proptest::prop_assert_eq!(view.offset(), n);
        proptest::prop_assert_eq!(view.estimator().frame_digest(), *prefixes.last().unwrap());
        engine.finish().unwrap();
    }
}
