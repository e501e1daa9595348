//! Determinism contract of the observability layer.
//!
//! The obs crate promises that, for a fixed input stream and seed,
//! (a) every counter, gauge, and derived statistic in a
//! [`MetricsSnapshot`] is identical across runs, (b) the event trace —
//! logical timestamps, kinds, shard labels, values — is identical
//! across runs, and (c) attaching an observer never perturbs the
//! estimator: the instrumented engine's merged state is bit-identical
//! to the plain engine's (checked via `frame_digest()` and the
//! estimate).
//! Wall-clock durations live only in latency histograms, which these
//! tests deliberately never compare.

use hindex::prelude::*;
use hindex_common::Snapshot;
use hindex_obs::MetricsSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn prototype(seed: u64) -> CashRegisterHIndex {
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.3).unwrap(),
        delta: Delta::new(0.2).unwrap(),
    };
    CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(seed))
}

/// One full instrumented run: ingest in two batches, query once,
/// checkpoint once, finish. Returns the metrics snapshot and the
/// final estimate.
fn instrumented_run(updates: &[(u64, u64)], seed: u64) -> (MetricsSnapshot, u64) {
    let observer = Arc::new(EngineObserver::new(3));
    let config = EngineConfig::builder()
        .shards(3)
        .batch(32)
        .observer(Arc::clone(&observer))
        .build()
        .unwrap();
    let mut engine = ShardedEngine::new(config, prototype(seed));
    let cut = updates.len() / 2;
    engine.ingest_batch(&updates[..cut]);
    engine.ingest_batch(&updates[cut..]);
    let _ = engine.query().unwrap();
    let _ = engine.checkpoint().unwrap();
    let estimate = engine.finish().unwrap().estimate();
    (observer.snapshot(), estimate)
}

/// The deterministic projection of a snapshot: everything except the
/// wall-clock latency histograms.
fn deterministic_view(s: &MetricsSnapshot) -> (Vec<u64>, Vec<Vec<u64>>, Vec<Event>, String) {
    (
        vec![
            s.items,
            s.push_batches,
            s.flushes,
            s.merges,
            s.degraded_queries,
            s.checkpoints,
            s.restores,
            s.batch_h_index,
            s.batch_max,
            s.batch_mean,
            s.events_recorded,
            // Supervision counters: zero on a plain engine, and equal
            // across identical seeded supervised runs.
            s.shard_panics,
            s.restarts,
            s.replayed_batches,
            s.micro_checkpoints,
            s.replay_overflows,
            s.batches_lost,
            s.items_lost,
            s.faults_injected,
        ],
        vec![
            s.per_shard_items.clone(),
            s.queue_depths.clone(),
            s.queue_depth_peaks.clone(),
        ],
        s.events.clone(),
        format!("{:.6}|{:.6}", s.routing_skew, s.full_batch_rate),
    )
}

fn stream(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| ((k * 13) % 170, 1 + k % 2)).collect()
}

#[test]
fn identical_seeded_runs_have_identical_metrics_and_traces() {
    let updates = stream(2_000);
    let (a, ha) = instrumented_run(&updates, 42);
    let (b, hb) = instrumented_run(&updates, 42);
    assert_eq!(ha, hb);
    assert_eq!(deterministic_view(&a), deterministic_view(&b));
    // The trace is non-trivial and carries logical time only.
    assert!(a.events_recorded > 0);
    let seqs: Vec<u64> = a.events.iter().map(|e| e.seq).collect();
    let sorted = {
        let mut s = seqs.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(seqs, sorted, "events must be recorded in sequence order");
}

#[test]
fn bank_counters_flow_from_estimator_to_observer() {
    // The Alg 6 bank kernel's telemetry must survive the whole relay:
    // estimator accumulation → shard merge at query → engine
    // `on_bank_batch` → observer snapshot + `BankBatch` trace event.
    let updates = stream(2_000);
    let (snap, _) = instrumented_run(&updates, 7);
    let bank = snap.bank;
    assert!(bank.tiles > 0, "no tiles reported: {bank:?}");
    // Every coalesced item passed through exactly one tile; raw
    // updates count the pre-coalescing stream.
    assert_eq!(bank.raw_updates, updates.len() as u64);
    assert!(bank.tile_items <= bank.raw_updates);
    assert!(bank.tile_items <= bank.tile_capacity);
    assert!(bank.level_touches > 0);
    // Term sharing covers the whole bank: x−1 reuses per evaluation.
    assert!(bank.pow_evals > 0);
    assert_eq!(bank.pow_reused % bank.pow_evals, 0);
    assert!(snap.bank_tile_fill() > 0.0 && snap.bank_tile_fill() <= 1.0);
    assert!(snap.bank_hash_reuse() > 0.9, "{}", snap.bank_hash_reuse());
    assert!(snap
        .events
        .iter()
        .any(|e| e.kind == hindex_obs::EventKind::BankBatch));
    assert!(snap.render_text().contains("hindex_bank_tiles_total"));
}

// Regression: only the fail-hard engine's queries relayed the bank
// counters, so a supervised Alg 6 run exported `hindex_bank_*` = 0.
#[test]
fn supervised_runs_relay_bank_counters() {
    let updates = stream(2_000);
    let observer = Arc::new(EngineObserver::new(2));
    let config = EngineConfig::builder()
        .shards(2)
        .batch(256)
        .observer(Arc::clone(&observer))
        .build()
        .unwrap();
    let mut engine =
        SupervisedEngine::new(config, SupervisorConfig::default(), prototype(7)).unwrap();
    engine.ingest_batch(&updates);
    let report = engine.report(None).unwrap();
    let bank = report.obs.expect("instrumented engine must attach obs").bank;
    assert!(bank.tile_items > 0, "supervised run relayed no bank counters: {bank:?}");
    assert_eq!(bank.raw_updates, updates.len() as u64);
    engine.finish().unwrap();
}

#[test]
fn observer_never_perturbs_the_estimator() {
    let updates = stream(3_000);
    let plain_config = EngineConfig::builder().shards(3).batch(32).build().unwrap();
    let mut plain = ShardedEngine::new(plain_config, prototype(7));
    plain.ingest_batch(&updates);
    let plain_final = plain.finish().unwrap();

    let observed_config = EngineConfig::builder()
        .shards(3)
        .batch(32)
        .observer(Arc::new(EngineObserver::new(3)))
        .build()
        .unwrap();
    let mut observed = ShardedEngine::new(observed_config, prototype(7));
    observed.ingest_batch(&updates);
    let observed_final = observed.finish().unwrap();

    assert_eq!(plain_final.estimate(), observed_final.estimate());
    assert_eq!(
        plain_final.frame_digest(),
        observed_final.frame_digest(),
        "instrumentation must be bit-invisible to estimator state"
    );
}

#[test]
fn snapshot_counts_match_the_workload() {
    let updates = stream(1_000);
    let (snap, _) = instrumented_run(&updates, 3);
    assert_eq!(snap.shards, 3);
    assert_eq!(snap.items, 1_000);
    assert_eq!(snap.per_shard_items.iter().sum::<u64>(), 1_000);
    assert_eq!(snap.push_batches, 2);
    assert_eq!(snap.merges, 1); // one query; finish()'s merge is untraced
    assert_eq!(snap.checkpoints, 1);
    assert_eq!(snap.degraded_queries, 0);
    assert!(snap.routing_skew >= 1.0);
    assert!(snap.batch_max <= 32);
    let text = snap.render_text();
    assert!(text.contains("hindex_engine_items_total 1000"), "{text}");
    assert!(text.contains("hindex_engine_checkpoints_total 1"), "{text}");
}

#[test]
fn query_report_is_consistent_with_the_snapshot() {
    let updates = stream(1_200);
    let observer = Arc::new(EngineObserver::new(2));
    let config = EngineConfig::builder()
        .shards(2)
        .batch(64)
        .observer(Arc::clone(&observer))
        .build()
        .unwrap();
    let mut engine = ShardedEngine::new(config, prototype(11));
    engine.ingest_batch(&updates);
    let report = engine.report(None).unwrap();
    assert!(report.degraded.is_empty());
    assert!(report.space_words > 0);
    let obs = report.obs.as_ref().expect("instrumented engine must attach obs");
    assert_eq!(obs.items, 1_200);
    assert_eq!(report.estimate, engine.query().unwrap().estimate());
}

#[test]
fn builder_rejects_mis_sized_observer_and_zero_geometry() {
    let err = EngineConfig::builder()
        .shards(4)
        .observer(Arc::new(EngineObserver::new(2)))
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig { .. }), "{err}");
    assert!(EngineConfig::builder().shards(0).build().is_err());
    assert!(EngineConfig::builder().batch(0).build().is_err());
    assert!(EngineConfig::builder().queue_depth(0).build().is_err());
}

#[test]
fn restore_is_traced_and_checkpoint_strips_the_observer() {
    let updates = stream(600);
    let observer = Arc::new(EngineObserver::new(2));
    let config = EngineConfig::builder()
        .shards(2)
        .batch(16)
        .observer(Arc::clone(&observer))
        .build()
        .unwrap();
    let mut engine = ShardedEngine::new(config, prototype(5));
    engine.ingest_batch(&updates);
    let checkpoint = engine.checkpoint().unwrap();
    engine.finish().unwrap();

    // Round-trip through bytes: the decoded checkpoint carries no
    // observer, and a fresh one can be re-attached for the resumed run.
    let bytes = hindex_common::snapshot::Snapshot::to_bytes(&checkpoint);
    let (decoded, _) =
        <EngineCheckpoint<CashRegisterHIndex> as hindex_common::snapshot::Snapshot>::read_from(
            &bytes,
        )
        .unwrap();
    assert!(decoded.config().observer().is_none());

    let resumed_obs = Arc::new(EngineObserver::new(2));
    let mut resumed =
        ShardedEngine::restore(decoded.with_observer(Arc::clone(&resumed_obs))).unwrap();
    resumed.ingest_batch(&updates);
    resumed.finish().unwrap();
    let snap = resumed_obs.snapshot();
    assert_eq!(snap.restores, 1);
    assert!(snap.events.iter().any(|e| e.kind == EventKind::Restore));
    assert_eq!(snap.items, 600);
}

// Regression: `send()` used to fire `on_flush` *before* the channel
// handoff, so a batch aimed at a dead shard was counted as flushed and
// then silently dropped. Delivery accounting must now be exhaustive:
// every routed item is either flushed exactly once or counted lost.
#[test]
fn lost_batches_are_counted_lost_not_flushed() {
    let updates = stream(2_000);
    let observer = Arc::new(EngineObserver::new(2));
    let config = EngineConfig::builder()
        .shards(2)
        .batch(32)
        .observer(Arc::clone(&observer))
        .build()
        .unwrap();
    // No restart budget: the injected kill is terminal, and everything
    // routed to the dead shard afterwards must be counted lost.
    let sup = SupervisorConfig { max_restarts: 0, ..SupervisorConfig::default() };
    let plan = FaultPlan::parse("kill@500:1", 2, 2_000).unwrap();
    let mut engine = SupervisedEngine::with_faults(config, sup, plan, prototype(3)).unwrap();
    engine.ingest_batch(&updates);
    engine.flush();
    let degraded = engine.finish_degraded().unwrap();
    assert_eq!(degraded.dead_shards, vec![1]);
    let snap = observer.snapshot();
    assert!(snap.items_lost > 0, "the dead shard must lose items");
    assert_eq!(
        snap.items + snap.items_lost,
        2_000,
        "flushed + lost must cover the whole stream exactly once: {snap:?}"
    );
    assert!(snap.events.iter().any(|e| e.kind == EventKind::BatchLost));
    assert!(snap.events.iter().any(|e| e.kind == EventKind::ShardPanicked));
    assert!(snap.render_text().contains("hindex_engine_items_lost_total"));
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// Property form of the determinism contract: for arbitrary update
    /// streams, two identical instrumented runs agree on every counter
    /// and the full event sequence, and the instrumented estimate
    /// matches an uninstrumented serial ingest of the same stream.
    #[test]
    fn metrics_and_traces_are_reproducible(
        updates in proptest::collection::vec((0u64..120, 1u64..4), 1..400),
        seed in 0u64..32,
    ) {
        let (a, ha) = instrumented_run(&updates, seed);
        let (b, hb) = instrumented_run(&updates, seed);
        proptest::prop_assert_eq!(ha, hb);
        proptest::prop_assert_eq!(deterministic_view(&a), deterministic_view(&b));

        let mut serial = prototype(seed);
        for &(p, d) in &updates {
            serial.ingest(p, d);
        }
        proptest::prop_assert_eq!(ha, serial.estimate());
    }
}
