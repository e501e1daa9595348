//! Cross-crate checks that measured space (in words) respects each
//! theorem's bound — the quantitative heart of the paper.

use hindex::prelude::*;
use hindex_common::SpaceUsage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Theorem 5: `≤ 2 ε⁻¹ ln n` words (values and count both ≤ n).
#[test]
fn theorem_5_space_bound() {
    for (eps, n) in [(0.1, 10_000u64), (0.2, 100_000), (0.5, 1_000_000)] {
        let mut est = ExponentialHistogram::new(Epsilon::new(eps).unwrap());
        let mut rng = StdRng::seed_from_u64(n);
        for _ in 0..n.min(200_000) {
            est.ingest(rng.random_range(0..=n));
        }
        let bound = 2.0 / eps * (n as f64).ln() + 2.0;
        assert!(
            (est.space_words() as f64) <= bound,
            "eps {eps} n {n}: {} > {bound}",
            est.space_words()
        );
    }
}

/// Theorem 6: `O(ε⁻¹ log ε⁻¹)` words, *independent of n*.
#[test]
fn theorem_6_space_independent_of_n() {
    for eps in [0.05, 0.1, 0.3] {
        let words_of = |n: u64| {
            let mut est = ShiftingWindow::new(Epsilon::new(eps).unwrap());
            let mut rng = StdRng::seed_from_u64(n);
            for _ in 0..n {
                est.ingest(rng.random_range(0..u64::from(u32::MAX)));
            }
            est.space_words()
        };
        let small = words_of(1_000);
        let big = words_of(100_000);
        assert_eq!(small, big, "eps {eps}: window width changed with n");
        let bound = 6.0 / eps * (3.0 / eps).log2() + 8.0;
        assert!((big as f64) <= bound, "eps {eps}: {big} > {bound}");
    }
}

/// Theorem 9: the large-regime branch is exactly six words; total space
/// is six words plus a window whose counters are bounded by β.
#[test]
fn theorem_9_constant_space() {
    let params = RandomOrderParams::new(
        Epsilon::new(0.2).unwrap(),
        Delta::new(0.05).unwrap(),
        1_000_000_000,
    );
    let mut est = RandomOrderEstimator::new(params);
    let before = est.space_words();
    let mut rng = StdRng::seed_from_u64(0);
    for _ in 0..100_000u64 {
        est.ingest(rng.random_range(0..1_000_000));
    }
    // Space never grows with the stream.
    assert_eq!(est.space_words(), before);
}

/// Theorem 14: sampler count (and hence space) is
/// `poly(1/ε, log(1/δ))`, independent of the stream length.
#[test]
fn theorem_14_space_stream_independent() {
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.3).unwrap(),
        delta: Delta::new(0.1).unwrap(),
    };
    let mut rng = StdRng::seed_from_u64(1);
    let mut est = CashRegisterHIndex::new(params, &mut rng);
    let empty_words = est.space_words();
    for i in 0..20_000u64 {
        est.ingest(i % 500, 1);
    }
    let full_words = est.space_words();
    // Linear sketches: size fixed at construction up to the BJKST
    // buffers, which are capped by 1/ε² per copy.
    assert!(
        full_words <= empty_words + 100_000,
        "cash sketch grew unboundedly: {empty_words} → {full_words}"
    );

    // Sampler count formula.
    assert_eq!(
        params.num_samplers(),
        (3.0 / (0.3 * 0.3) * (2.0f64 / 0.1).ln()).ceil() as usize
    );
}

/// Theorem 17: Algorithm 7 keeps `O(levels · s)` sampled author lists
/// and one counter per level — logarithmic in the citation range.
#[test]
fn theorem_17_space_logarithmic() {
    let corpus = hindex_stream::generator::planted_heavy_hitters(&[50], 50, 10, 9, 2);
    let mut rng = StdRng::seed_from_u64(3);
    let mut det = OneHeavyHitter::new(Epsilon::new(0.2).unwrap(), 0.05, &mut rng);
    for p in corpus.papers() {
        det.push(p);
    }
    let s = det.sample_size();
    // levels ≈ log_{1.2}(150) ≈ 28; each retained sample ≤ 2 words here.
    let bound = 40 * (3 * s + 2) + 2;
    assert!(det.space_words() <= bound, "{} > {bound}", det.space_words());
}

/// Theorem 18: geometry is `⌈log₂(1/(εδ))⌉ × ⌈2/ε²⌉` Algorithm-7
/// instances. Space saturates at a bound set by that geometry (buckets
/// × levels × reservoir capacity), independent of how many *more*
/// authors arrive.
#[test]
fn theorem_18_geometry_author_independent() {
    let params = HeavyHittersParams::new(
        Epsilon::new(0.25).unwrap(),
        Delta::new(0.05).unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(4);
    let mut many = HeavyHitters::new(params, &mut rng);
    for i in 0..2_000u64 {
        many.push(&Paper::solo(i, i, (i % 40) + 1));
    }
    let words_2k = many.space_words();
    // Ten times more (distinct) authors: the sketch must have already
    // saturated — growth well below proportional.
    for i in 2_000..20_000u64 {
        many.push(&Paper::solo(i, i, (i % 40) + 1));
    }
    let words_20k = many.space_words();
    assert!(
        words_20k <= words_2k + words_2k / 5,
        "no saturation: {words_2k} → {words_20k}"
    );
    // And the absolute bound from the geometry: rows × buckets ×
    // (levels × (s·2 + 2) + slack).
    let rows = params.rows();
    let buckets = params.buckets();
    let bound = rows * buckets * (20 * (40 * 2 + 2) + 25) + 100;
    assert!(words_20k <= bound, "{words_20k} > geometry bound {bound}");
}

/// The sharded engine's space is the sum of its parts: every shard's
/// estimator plus the bounded channel capacity and the router's local
/// buffers. No hidden state.
#[test]
fn engine_space_accounts_shards_and_channels() {
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.3).unwrap(),
        delta: Delta::new(0.2).unwrap(),
    };
    let prototype = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(8));
    let proto_words = prototype.space_words();
    let config = hindex_engine::EngineConfig::builder().shards(3).batch(64).queue_depth(2).build().unwrap();
    let mut engine = ShardedEngine::new(config, prototype);
    for i in 0..5_000u64 {
        engine.ingest((i % 200, 1));
    }
    // (u64, u64) items occupy two words per slot.
    let channel_words = 3 * 2 * 64 * 2;
    let buffered_words = engine.buffered_items() * 2;
    let words = engine.space_words();
    assert!(
        words >= 3 * proto_words + channel_words + buffered_words,
        "{words} < parts"
    );
    // Upper bound: shard sketches only grow by their capped BJKST
    // buffers (Theorem 14's stream-independence, per shard).
    assert!(
        words <= 3 * (proto_words + 100_000) + channel_words + buffered_words,
        "engine space unbounded: {words}"
    );
    engine.finish().unwrap();
}

/// The exact engine splits the key space: the shards' tables together
/// store each distinct paper exactly once, so sharding adds only the
/// fixed channel capacity.
#[test]
fn exact_engine_space_partitions_keys() {
    use hindex_baseline::CashTable;
    use hindex_common::CashRegisterEstimator as _;
    let mut single = CashTable::new();
    let config = hindex_engine::EngineConfig::builder().shards(4).batch(32).queue_depth(2).build().unwrap();
    let mut engine = ShardedEngine::new(config, CashTable::new());
    for i in 0..3_000u64 {
        single.ingest(i % 500, 2);
        engine.ingest((i % 500, 2));
    }
    engine.flush();
    let channel_words = 4 * 2 * 32 * 2;
    let words = engine.space_words();
    assert!(
        words <= single.space_words() + channel_words + 64,
        "sharded exact tables duplicate keys: {words}"
    );
    engine.finish().unwrap();
}

/// §6 extensions (g-index, α-index) and the sliding-window estimator
/// keep one cell (or one DGIM counter) per ε-grid level of the *value*
/// range: once the value range has been covered, space is independent
/// of how much more stream arrives.
#[test]
fn extension_estimators_space_value_range_bounded() {
    let eps = Epsilon::new(0.2).unwrap();
    let words_at = |n: u64| {
        let mut g = StreamingGIndex::new(eps);
        let mut alpha = StreamingAlphaIndex::new(eps, 2.0);
        let mut sliding = SlidingHIndex::new(eps, 256, 0.1);
        for i in 0..n {
            let v = (i * 31) % 1_000 + 1; // gcd(31, 1000) = 1: full range every 1 000 steps
            g.ingest(v);
            alpha.ingest(v);
            sliding.ingest(v);
        }
        (g.space_words(), alpha.space_words(), sliding.space_words())
    };
    let (g_5k, alpha_5k, sliding_5k) = words_at(5_000);
    let (g_words, alpha_words, sliding_words) = words_at(50_000);
    // Level-indexed cells: exactly stream-length independent.
    assert_eq!((g_5k, alpha_5k), (g_words, alpha_words), "space grew with stream length");
    // DGIM bucket counts grow with the *logarithm* of ones seen in the
    // window, so 10× more stream may add a handful of buckets per
    // level — but nothing near proportional.
    assert!(
        sliding_words <= sliding_5k + sliding_5k / 10,
        "sliding window far from saturation: {sliding_5k} → {sliding_words}"
    );
    // Absolute scale: ~log_{1+ε} 1000 ≈ 38 levels. The level-indexed
    // cells stay within a small multiple of that; the sliding window
    // pays a DGIM counter (O(k log W) words) per level, far below the
    // Θ(n) linear baseline either way.
    assert!(g_words <= 4 * 38 + 1, "g-index: {g_words}");
    assert!(alpha_words <= 2 * 38, "alpha-index: {alpha_words}");
    assert!(sliding_words < 50_000 / 10, "sliding: {sliding_words}");
}

/// The exact baselines really do pay linear/Θ(h) space — the gap the
/// paper's sketches close.
#[test]
fn baselines_pay_linear_space() {
    use hindex_baseline::{CashTable, FullStore};
    use hindex_common::{AggregateEstimator as _, CashRegisterEstimator as _};
    let mut full = FullStore::new();
    let mut table = CashTable::new();
    for i in 0..10_000u64 {
        full.ingest(i);
        table.ingest(i, 1);
    }
    assert!(full.space_words() >= 10_000);
    assert!(table.space_words() >= 10_000);
}

/// Kernel-layer accounting policy (`docs/ALGORITHMS.md`, "Space
/// accounting for derived scratch"): windowed power ladders are
/// recomputable from randomness the sketch already counts, so the
/// paper-facing `space_words` must exclude them — exactly the grid +
/// row hashes + checksum it reported before the kernel layer existed —
/// while `scratch_words` carries the tables on a separate channel.
#[test]
fn derived_scratch_excluded_from_paper_space() {
    use hindex_hashing::PowerLadder;
    use hindex_sketch::SparseRecovery;
    use std::sync::Arc;

    let (s, rows) = (4usize, 6usize);
    let mut sketch = SparseRecovery::new(s, rows, &mut StdRng::seed_from_u64(7));
    // Pre-kernel formula: rows × 2s cells + checksum (6 words each)
    // plus (a, b) per row hash. No ladder words anywhere in it.
    let paper_words = rows * 2 * s * 6 + 6 + 2 * rows;
    assert_eq!(sketch.space_words(), paper_words);
    // The ladder is exactly the 8 × 256 window table plus its base,
    // reported on the scratch channel only.
    assert_eq!(sketch.scratch_words(), 8 * 256 + 1);
    // Ingestion (which materialises the lazy grid) moves neither.
    for i in 0..1_000u64 {
        sketch.update(i % 37, 1);
    }
    assert_eq!(sketch.space_words(), paper_words);
    assert_eq!(sketch.scratch_words(), 8 * 256 + 1);

    // Supplying a shared ladder changes who owns the table, never the
    // paper-facing count.
    let shared = Arc::new(PowerLadder::new(123_456_789));
    let sharing =
        SparseRecovery::with_shared_ladder(s, rows, shared, &mut StdRng::seed_from_u64(8));
    assert_eq!(sharing.space_words(), paper_words);
}

/// Ladder sharing is counted at the sharing level: an ℓ₀-sampler's ~40
/// levels hold one `Arc`'d ladder between them and must report one
/// table — and the composed estimators above it keep scratch on its
/// own channel, in whole-ladder units. The cash-register bank shares
/// a single ladder across all x samplers (the bank-wide kernel's term
/// sharing), so the whole bank reports exactly one ladder, not x.
#[test]
fn shared_ladders_counted_once_per_sharing_scope() {
    use hindex_sketch::{L0Sampler, L0SamplerParams};

    let ladder_words = 8 * 256 + 1;
    let sampler =
        L0Sampler::new(L0SamplerParams::default(), &mut StdRng::seed_from_u64(9));
    assert!(sampler.num_levels() >= 2);
    assert_eq!(sampler.scratch_words(), ladder_words);

    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.3).unwrap(),
        delta: Delta::new(0.2).unwrap(),
    };
    let cash = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(10));
    assert!(params.num_samplers() > 1);
    assert_eq!(cash.scratch_words() % ladder_words, 0);
    assert_eq!(cash.scratch_words() / ladder_words, 1);

    let turnstile = TurnstileHIndex::new(
        Epsilon::new(0.4).unwrap(),
        Delta::new(0.3).unwrap(),
        &mut StdRng::seed_from_u64(11),
    );
    assert_eq!(turnstile.scratch_words() % ladder_words, 0);
    assert!(turnstile.scratch_words() / ladder_words > turnstile.num_samplers());
}

/// The supervised engine's replay log is recovery scratch, not paper
/// space: `space_words` stays on the ledger the fail-hard engine
/// reports (live shard states + channels + buffers), with the log's
/// words confined to `scratch_words`.
#[test]
fn supervised_replay_log_is_scratch_not_space() {
    use hindex_baseline::CashTable;

    let config = hindex_engine::EngineConfig::builder()
        .shards(2)
        .batch(16)
        .queue_depth(2)
        .build()
        .unwrap();
    let sup = hindex_engine::SupervisorConfig {
        checkpoint_interval: 1_000, // never trims mid-run: the log keeps every batch
        ..hindex_engine::SupervisorConfig::default()
    };
    let mut engine =
        hindex_engine::SupervisedEngine::new(config, sup, CashTable::new()).unwrap();
    for i in 0..2_000u64 {
        engine.ingest((i % 97, 1));
    }
    engine.flush();

    let scratch = engine.scratch_words();
    let space = engine.space_words();
    // (u64, u64) items are two words per logged slot; ~125 batches of
    // 16 are outstanding past the spawn cut.
    assert!(scratch >= 100 * 16 * 2, "replay log unaccounted: {scratch}");
    // The paper-facing ledger is bounded by channels + the two live
    // shard tables (buffers are empty after `flush`) — it must not
    // have absorbed the log or the retained bases.
    let channel_words = 2 * 2 * 16 * 2;
    let state_words = 2 * 1_024; // two tables of 97 papers, generously
    assert!(
        space <= channel_words + state_words,
        "replay words leaked into space_words: {space}"
    );
    assert!(engine.finish().is_ok());
}

/// One ledger for both engine names: on the same fault-free stream the
/// fail-hard and the supervised engine report the same `space_words`
/// (their live shard states are identical), and the zero-restart name
/// holds no recovery state at all — no bases, no replay log.
#[test]
fn both_engine_names_report_one_space_ledger() {
    use std::sync::Arc;

    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.3).unwrap(),
        delta: Delta::new(0.2).unwrap(),
    };
    let prototype = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(8));
    // Theorem 14: a shard state's space does not depend on the stream.
    let state_words = prototype.space_words();
    let updates: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i % 700, 1)).collect();
    let config = |observer: &Arc<EngineObserver>| {
        EngineConfig::builder()
            .shards(2)
            .batch(256)
            .observer(Arc::clone(observer))
            .build()
            .unwrap()
    };
    let plain_obs = Arc::new(EngineObserver::new(2));
    let mut plain = ShardedEngine::new(config(&plain_obs), prototype.clone());
    let sup_obs = Arc::new(EngineObserver::new(2));
    let mut supervised =
        SupervisedEngine::new(config(&sup_obs), SupervisorConfig::default(), prototype).unwrap();
    plain.ingest_batch(&updates);
    supervised.ingest_batch(&updates);
    let plain_space = plain.report(None).unwrap().space_words;
    assert_eq!(plain_space, supervised.report(None).unwrap().space_words);
    assert_eq!(plain.scratch_words(), 0);
    // Each shard retains one recovery base, a full state clone.
    assert!(
        supervised.scratch_words() >= 2 * state_words,
        "retained bases are scratch: {} < 2 × {state_words}",
        supervised.scratch_words()
    );
    plain.finish().unwrap();
    supervised.finish().unwrap();
    assert_eq!(plain_obs.snapshot().micro_checkpoints, 0);
    assert!(sup_obs.snapshot().micro_checkpoints > 0);
}
