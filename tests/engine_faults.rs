//! The chaos contract of the self-healing engine.
//!
//! Three guarantees, checked end to end:
//!
//! 1. **Exactness under recoverable faults.** For any seeded
//!    [`FaultPlan`] whose faults stay within the replay-log bounds
//!    (kills, send failures, stalls — every shard healable), the
//!    supervised engine's final merged state is **bit-identical**
//!    (same [`Snapshot`] frame digest) to a fault-free run's.
//! 2. **Determinism.** Two runs with the same stream and the same
//!    fault plan produce identical counters and identical event
//!    traces — fault injection is replayable, not merely survivable.
//! 3. **Honesty.** When healing is impossible the engine reports a
//!    reason-carrying [`EngineError::ShardDead`] (the harvested panic
//!    payload included) instead of a silently wrong answer.

use hindex::prelude::*;
use hindex_common::snapshot::Snapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn sketch_proto(seed: u64) -> CashRegisterHIndex {
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.3).unwrap(),
        delta: Delta::new(0.2).unwrap(),
    };
    CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(seed))
}

fn stream(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|k| ((k * 13) % 170, 1 + k % 2)).collect()
}

fn config(shards: usize, observer: Option<Arc<EngineObserver>>) -> EngineConfig {
    let mut b = EngineConfig::builder().shards(shards).batch(16).queue_depth(2);
    if let Some(o) = observer {
        b = b.observer(o);
    }
    b.build().unwrap()
}

/// Reference digest: the same stream through a plain (unsupervised)
/// engine with identical geometry and seed.
fn clean_digest(shards: usize, seed: u64, updates: &[(u64, u64)]) -> u64 {
    let mut engine = ShardedEngine::new(config(shards, None), sketch_proto(seed));
    engine.ingest_batch(updates);
    engine.finish().unwrap().frame_digest()
}

/// One supervised run; returns the merged frame digest plus the
/// deterministic projection of its metrics (counters and full event
/// trace — everything except wall-clock latency).
fn chaotic_run(
    shards: usize,
    seed: u64,
    updates: &[(u64, u64)],
    plan: FaultPlan,
) -> (u64, Vec<u64>, Vec<Event>) {
    let observer = Arc::new(EngineObserver::new(shards));
    let mut engine = SupervisedEngine::with_faults(
        config(shards, Some(Arc::clone(&observer))),
        SupervisorConfig::default(),
        plan,
        sketch_proto(seed),
    )
    .unwrap();
    engine.ingest_batch(updates);
    let digest = engine.finish().expect("recoverable plan").frame_digest();
    let s = observer.snapshot();
    let counters = vec![
        s.items,
        s.flushes,
        s.shard_panics,
        s.restarts,
        s.replayed_batches,
        s.micro_checkpoints,
        s.replay_overflows,
        s.batches_lost,
        s.items_lost,
        s.faults_injected,
    ];
    (digest, counters, s.events)
}

#[test]
fn killing_every_shard_recovers_bit_identically() {
    let updates = stream(3_000);
    for shards in [1usize, 2, 4] {
        let plan = FaultPlan::kill_sweep(shards, 200, 400);
        assert!(plan.kills_every_shard(shards));
        let (digest, counters, _) = chaotic_run(shards, 11, &updates, plan);
        assert_eq!(
            digest,
            clean_digest(shards, 11, &updates),
            "{shards} shards: healed state diverged from the fault-free run"
        );
        let restarts = counters[3];
        assert!(restarts >= shards as u64, "every shard must restart: {counters:?}");
        assert_eq!(counters[8], 0, "no items may be lost on a recoverable plan");
    }
}

/// Kill + heal under a live read plane: a marker held by a killed
/// worker dies with it, leaving that epoch incomplete — the aggregator
/// discards it rather than publishing a view missing the dead shard's
/// updates. So every view any reader can observe, during a kill sweep
/// over every shard, is still an exact serial prefix of the stream.
#[test]
fn kill_and_heal_never_publishes_a_non_healed_view() {
    use hindex::baseline::CashTable;
    use std::sync::atomic::{AtomicBool, Ordering};

    let updates = stream(3_000);
    // Serial single-threaded reference at every prefix.
    let prefixes: Arc<Vec<u64>> = Arc::new({
        let mut table = CashTable::new();
        let mut out = vec![table.frame_digest()];
        for &(p, d) in &updates {
            table.ingest(p, d);
            out.push(table.frame_digest());
        }
        out
    });
    let shards = 3usize;
    let cfg = EngineConfig::builder()
        .shards(shards)
        .batch(16)
        .queue_depth(2)
        .publish_interval(128)
        .build()
        .unwrap();
    let plan = FaultPlan::kill_sweep(shards, 200, 400);
    assert!(plan.kills_every_shard(shards));
    let mut engine =
        SupervisedEngine::with_faults(cfg, SupervisorConfig::default(), plan, CashTable::new())
            .unwrap();
    let handle = engine.read_handle().expect("publish_interval set");
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (h, s, prefixes) = (handle.clone(), Arc::clone(&stop), Arc::clone(&prefixes));
        std::thread::spawn(move || {
            let (mut observed, mut last_epoch) = (0u64, 0u64);
            while !s.load(Ordering::Relaxed) {
                if let Some(view) = h.query() {
                    assert!(view.epoch() >= last_epoch, "epoch regressed");
                    last_epoch = view.epoch();
                    assert_eq!(
                        view.estimator().frame_digest(),
                        prefixes[view.offset() as usize],
                        "published a torn or non-healed view at offset {}",
                        view.offset()
                    );
                    observed += 1;
                }
                std::thread::yield_now();
            }
            observed
        })
    };
    engine.ingest_batch(&updates);
    let epoch = engine.publish_now().expect("all shards healable");
    assert!(handle.wait_for_epoch(epoch, 10_000), "post-heal publish never completed");
    stop.store(true, Ordering::Relaxed);
    assert!(reader.join().unwrap() > 0, "reader never saw a view");
    let view = handle.query().unwrap();
    assert_eq!(view.offset(), updates.len() as u64);
    assert_eq!(view.estimator().frame_digest(), *prefixes.last().unwrap());
    assert_eq!(engine.finish().unwrap().frame_digest(), *prefixes.last().unwrap());
}

#[test]
fn seeded_random_plans_are_replayable() {
    let updates = stream(2_000);
    let plan_a = FaultPlan::random(6, 3, updates.len() as u64, 99);
    let plan_b = FaultPlan::random(6, 3, updates.len() as u64, 99);
    assert_eq!(format!("{plan_a:?}"), format!("{plan_b:?}"), "same seed, same plan");
    assert_ne!(
        format!("{plan_a:?}"),
        format!("{:?}", FaultPlan::random(6, 3, updates.len() as u64, 100)),
        "different seed, different plan"
    );
}

// Regression: `join_workers` used to discard panic payloads
// (`h.join().ok()`), so a dead shard reported only its index. The
// harvested payload must now travel through `EngineError::ShardDead`'s
// Display.
#[test]
fn terminal_shard_error_carries_the_panic_payload() {
    let updates = stream(1_000);
    let sup = SupervisorConfig { max_restarts: 0, ..SupervisorConfig::default() };
    let plan = FaultPlan::parse("kill@100:0", 2, 1_000).unwrap();
    let mut engine =
        SupervisedEngine::with_faults(config(2, None), sup, plan, sketch_proto(1)).unwrap();
    engine.ingest_batch(&updates);
    let err = engine.finish().unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, EngineError::ShardDead { shard: 0, .. }), "{msg}");
    assert!(msg.contains("injected fault: kill shard 0"), "payload missing: {msg}");
    assert!(msg.contains("restart budget exhausted"), "ladder rung missing: {msg}");
}

#[test]
fn fault_plan_parser_round_trips_the_grammar() {
    let plan = FaultPlan::parse("kill@5:0, fail@9:1=3, stall@2:2=7", 3, 100).unwrap();
    assert_eq!(plan.faults.len(), 3);
    assert!(FaultPlan::parse("kill@5:9", 3, 100).is_err(), "shard out of range");
    assert!(FaultPlan::parse("fail@5:0=0", 3, 100).is_err(), "zero send failures");
    assert!(FaultPlan::parse("nonsense", 3, 100).is_err());
    let seeded = FaultPlan::parse("rand=4@77", 3, 100).unwrap();
    assert_eq!(seeded.seed, Some(77));
    assert_eq!(seeded.faults.len(), 4);
}

/// Builds a comma-separated fault spec from proptest-generated
/// primitives: kinds 0/1/2 → kill/fail/stall.
fn spec_from(parts: &[(u8, u64, u8, u64)], shards: usize, horizon: u64) -> String {
    parts
        .iter()
        .map(|&(kind, tick, shard, arg)| {
            let tick = tick % horizon;
            let shard = u64::from(shard) % shards as u64;
            match kind % 3 {
                0 => format!("kill@{tick}:{shard}"),
                1 => format!("fail@{tick}:{shard}={}", 1 + arg % 3),
                _ => format!("stall@{tick}:{shard}={}", arg % 4),
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// For ANY in-bounds fault plan: the healed engine's final state is
    /// bit-identical to a fault-free run's, and running the identical
    /// seeded chaos twice yields identical metrics and event traces.
    #[test]
    fn any_recoverable_fault_plan_preserves_the_digest(
        parts in proptest::collection::vec(
            (0u8..3, 0u64..1500, 0u8..3, 0u64..8),
            1..6,
        ),
        seed in 0u64..16,
    ) {
        let updates = stream(1_500);
        let shards = 3usize;
        let spec = spec_from(&parts, shards, updates.len() as u64);
        let plan = FaultPlan::parse(&spec, shards, updates.len() as u64).unwrap();
        let (da, ca, ta) = chaotic_run(shards, seed, &updates, plan.clone());
        proptest::prop_assert_eq!(
            da,
            clean_digest(shards, seed, &updates),
            "plan {} diverged from the fault-free run", spec
        );
        let plan = FaultPlan::parse(&spec, shards, updates.len() as u64).unwrap();
        let (db, cb, tb) = chaotic_run(shards, seed, &updates, plan);
        proptest::prop_assert_eq!(da, db);
        proptest::prop_assert_eq!(ca, cb, "counters diverged for plan {}", spec);
        proptest::prop_assert_eq!(ta, tb, "event traces diverged for plan {}", spec);
    }
}
