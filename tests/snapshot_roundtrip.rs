//! Snapshot contracts for every persistable type in the workspace:
//!
//! 1. **Round-trip** — `read_from(to_bytes(x))` succeeds, consumes the
//!    whole frame, and re-encodes to the *identical* byte string;
//!    observable behaviour (estimates, decodes) survives. The frame's
//!    FNV-1a is `Snapshot::frame_digest`, the state digest every
//!    bit-identity test compares, so re-encoding identically is
//!    digest equality.
//! 2. **Corruption totality** — truncations, bit flips, hostile length
//!    prefixes, wrong tags, and future versions all produce a typed
//!    [`SnapshotError`], never a panic and never an unbounded
//!    allocation.
//!
//! Lint L11 (`hindex-analysis`) checks that every `Mergeable`
//! implementor appears here by name: `CashTable`,
//! `ExponentialHistogram`, `OneHeavyHitter`, `HeavyHitters`,
//! `TurnstileHIndex`, `StreamingGIndex`, `CashRegisterHIndex`.

use hindex::prelude::*;
use hindex_baseline::{CashTable, FullStore};
use hindex_common::snapshot::{Snapshot, SnapshotError};
use hindex_common::ExpGrid;
use hindex_common::Estimate;
use hindex_hashing::{PairwiseHash, PolynomialHash, PowerLadder, TabulationHash};
use hindex_sketch::{
    Bjkst, Dgim, DistinctCounter, Kmv, L0Norm, L0Sampler, OneSparseRecovery, SparseRecovery,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Round-trips one value and checks the canonical-encoding law.
fn roundtrip<S: Snapshot>(name: &str, value: &S) -> S {
    let bytes = value.to_bytes();
    let (decoded, used) =
        S::read_from(&bytes).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    assert_eq!(used, bytes.len(), "{name}: decode did not consume the frame");
    assert_eq!(decoded.to_bytes(), bytes, "{name}: re-encode differs");
    decoded
}

/// A type-erased decoder so the corruption sweep can run over every
/// implementor with one loop.
type Decoder = Box<dyn Fn(&[u8]) -> Result<(), SnapshotError>>;

fn case<S: Snapshot + 'static>(name: &'static str, value: &S) -> (&'static str, Vec<u8>, Decoder) {
    (
        name,
        value.to_bytes(),
        Box::new(|bytes| S::read_from(bytes).map(|_| ())),
    )
}

fn sample_papers() -> Vec<Paper> {
    hindex_stream::generator::planted_heavy_hitters(&[80, 60], 60, 4, 2, 1)
        .papers()
        .to_vec()
}

/// One populated instance of every `Snapshot` implementor.
fn all_cases() -> Vec<(&'static str, Vec<u8>, Decoder)> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let eps = Epsilon::new(0.25).unwrap();
    let delta = Delta::new(0.1).unwrap();
    let papers = sample_papers();

    // Hashing seeds.
    let mut cases = vec![
        case("pairwise_hash", &PairwiseHash::new(&mut rng)),
        case("polynomial_hash", &PolynomialHash::new(5, &mut rng)),
        case("tabulation_hash", &TabulationHash::new(&mut rng)),
        case("power_ladder", &PowerLadder::new(987_654_321)),
        case("exp_grid", &ExpGrid::new(0.25)),
    ];

    // Sketches.
    let mut one_sparse = OneSparseRecovery::new(&mut rng);
    for i in 0..40u64 {
        one_sparse.update(i % 7, (i % 5) as i64 - 2);
    }
    cases.push(case("one_sparse", &one_sparse));

    let mut sparse = SparseRecovery::new(5, 4, &mut rng);
    sparse.update(10, 5);
    sparse.update(20, -3);
    sparse.update(30, 7);
    cases.push(case("sparse_recovery", &sparse));

    let mut l0 = L0Sampler::with_defaults(&mut rng);
    for i in 0..200u64 {
        l0.update(i * 31 % 997, 1);
    }
    cases.push(case("l0_sampler", &l0));

    let mut norm = L0Norm::new(0.3, 0.2, &mut rng);
    for i in 0..300u64 {
        norm.update(i % 90, if i % 9 == 0 { -1 } else { 1 });
    }
    cases.push(case("l0_norm", &norm));

    let mut bjkst = Bjkst::new(0.2, 0.1, &mut rng);
    let mut kmv = Kmv::new(32, &mut rng);
    for i in 0..500u64 {
        let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        bjkst.observe(key);
        kmv.observe(key);
    }
    cases.push(case("bjkst", &bjkst));
    cases.push(case("kmv", &kmv));

    let mut dgim = Dgim::new(128, 2);
    for i in 0..400u64 {
        dgim.push(i % 3 != 0);
    }
    cases.push(case("dgim", &dgim));

    // Paper algorithms (all seven `Mergeable` implementors).
    let mut hist = ExponentialHistogram::new(eps);
    hist.extend_from((0..2_000u64).map(|i| (i * 13) % 900));
    cases.push(case("exponential_histogram", &hist));

    let params = CashRegisterParams::Additive { epsilon: eps, delta };
    let mut cash = CashRegisterHIndex::new(params, &mut rng);
    for i in 0..1_500u64 {
        cash.ingest(i % 200, 1 + i % 3);
    }
    cases.push(case("cash_register_h_index", &cash));

    let mut turnstile = TurnstileHIndex::with_sampler_count(eps, delta, 9, &mut rng);
    for i in 0..800u64 {
        turnstile.update(i % 120, 2);
    }
    for p in 0..30u64 {
        turnstile.update(p, -2);
    }
    cases.push(case("turnstile_h_index", &turnstile));

    let mut one_hh = OneHeavyHitter::new(eps, 0.05, &mut rng);
    let hh_params = HeavyHittersParams::new(eps, delta);
    let mut hh = HeavyHitters::new(hh_params, &mut rng);
    for p in &papers {
        one_hh.push(p);
        hh.push(p);
    }
    cases.push(case("one_heavy_hitter", &one_hh));
    cases.push(case("heavy_hitters", &hh));

    let mut g_index = StreamingGIndex::new(eps);
    for v in (0..1_000u64).map(|i| (i * 7) % 400 + 1) {
        g_index.ingest(v);
    }
    cases.push(case("streaming_g_index", &g_index));

    // Baselines.
    let mut table = CashTable::new();
    for i in 0..600u64 {
        table.ingest(i % 97, 1 + i % 4);
    }
    cases.push(case("cash_table", &table));

    let mut store = FullStore::new();
    store.extend_from((0..200u64).map(|i| i % 50));
    cases.push(case("full_store", &store));

    // Engine checkpoint (nested frames all the way down).
    let config = EngineConfig::builder().shards(3).batch(16).build().unwrap();
    let mut engine = ShardedEngine::new(config, CashTable::new());
    let updates: Vec<(u64, u64)> = (0..300u64).map(|k| (k % 40, 1)).collect();
    engine.ingest_batch(&updates);
    let checkpoint = engine.checkpoint().expect("no shard died");
    engine.finish().expect("clean finish");
    cases.push(case("engine_checkpoint", &checkpoint));

    cases
}

#[test]
fn every_snapshot_implementor_roundtrips_canonically() {
    // `case()` already encodes; this re-runs the full round-trip law
    // (decode succeeds, frame fully consumed, re-encode identical) via
    // the type-erased decoder plus the byte-equality check in `case`.
    for (name, bytes, decode) in all_cases() {
        decode(&bytes).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    }
}

#[test]
fn roundtrip_preserves_estimates_and_decodes() {
    let mut rng = StdRng::seed_from_u64(7);
    let eps = Epsilon::new(0.25).unwrap();
    let delta = Delta::new(0.1).unwrap();

    let params = CashRegisterParams::Additive { epsilon: eps, delta };
    let mut cash = CashRegisterHIndex::new(params, &mut rng);
    for i in 0..2_000u64 {
        cash.ingest(i % 150, 1);
    }
    let cash2 = roundtrip("cash_register_h_index", &cash);
    assert_eq!(cash2.estimate(), cash.estimate());
    assert_eq!(cash2.draw_samples(), cash.draw_samples());

    let mut turnstile =
        TurnstileHIndex::with_sampler_count(eps, delta, 11, &mut rng);
    for i in 0..900u64 {
        turnstile.update(i % 80, 3);
    }
    let turnstile2 = roundtrip("turnstile_h_index", &turnstile);
    assert_eq!(turnstile2.estimate(), turnstile.estimate());

    let mut hist = ExponentialHistogram::new(eps);
    hist.extend_from((0..3_000u64).map(|i| i % 777));
    let hist2 = roundtrip("exponential_histogram", &hist);
    assert_eq!(hist2.estimate(), hist.estimate());
    assert_eq!(hist2.counters(), hist.counters());

    let mut g_index = StreamingGIndex::new(eps);
    for v in 1..=500u64 {
        g_index.ingest(v);
    }
    let g2 = roundtrip("streaming_g_index", &g_index);
    assert_eq!(g2.estimate(), g_index.estimate());

    let hh_params = HeavyHittersParams::new(eps, delta);
    let mut hh = HeavyHitters::new(hh_params, &mut rng);
    let mut one_hh = OneHeavyHitter::new(eps, 0.05, &mut rng);
    for p in &sample_papers() {
        hh.push(p);
        one_hh.push(p);
    }
    let hh2 = roundtrip("heavy_hitters", &hh);
    assert_eq!(hh2.decode(), hh.decode());
    let one_hh2 = roundtrip("one_heavy_hitter", &one_hh);
    assert_eq!(one_hh2.decode(), one_hh.decode());

    let mut table = CashTable::new();
    for i in 0..400u64 {
        table.ingest(i % 61, 1 + i % 5);
    }
    let table2 = roundtrip("cash_table", &table);
    assert_eq!(table2.estimate(), table.estimate());
    assert_eq!(table2.distinct(), table.distinct());
    for paper in 0..61u64 {
        assert_eq!(table2.count(paper), table.count(paper), "paper {paper}");
    }
}

/// Populated linear sketches round-trip canonically. The frame is the
/// state digest (`Snapshot::frame_digest`), so `roundtrip`'s re-encode
/// check is the bit-identity of the full internal state.
#[test]
fn populated_sketches_roundtrip() {
    let mut rng = StdRng::seed_from_u64(11);
    let eps = Epsilon::new(0.3).unwrap();
    let delta = Delta::new(0.2).unwrap();

    let mut l0 = L0Sampler::with_defaults(&mut rng);
    let mut norm = L0Norm::new(0.3, 0.2, &mut rng);
    let mut sparse = SparseRecovery::new(6, 6, &mut rng);
    let mut bjkst = Bjkst::new(0.2, 0.1, &mut rng);
    for i in 0..400u64 {
        l0.update(i % 70, 1);
        norm.update(i % 70, 1);
        sparse.update(i % 6, 1);
        bjkst.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    roundtrip("l0_sampler", &l0);
    roundtrip("l0_norm", &norm);
    roundtrip("sparse", &sparse);
    roundtrip("bjkst", &bjkst);

    let params = CashRegisterParams::Additive { epsilon: eps, delta };
    let mut cash = CashRegisterHIndex::new(params, &mut rng);
    let mut turnstile = TurnstileHIndex::with_sampler_count(eps, delta, 9, &mut rng);
    for i in 0..600u64 {
        cash.ingest(i % 90, 1);
        turnstile.ingest(i % 90, 1);
    }
    roundtrip("cash_register_h_index", &cash);
    roundtrip("turnstile_h_index", &turnstile);
}

#[test]
fn empty_estimators_roundtrip() {
    let mut rng = StdRng::seed_from_u64(3);
    let eps = Epsilon::new(0.2).unwrap();
    let delta = Delta::new(0.1).unwrap();
    roundtrip("empty_cash_table", &CashTable::new());
    roundtrip("empty_full_store", &FullStore::new());
    roundtrip("empty_exp_hist", &ExponentialHistogram::new(eps));
    roundtrip("empty_g_index", &StreamingGIndex::new(eps));
    roundtrip("empty_dgim", &Dgim::new(64, 2));
    roundtrip("empty_one_sparse", &OneSparseRecovery::new(&mut rng));
    roundtrip("empty_l0", &L0Sampler::with_defaults(&mut rng));
    roundtrip(
        "empty_turnstile",
        &TurnstileHIndex::with_sampler_count(eps, delta, 5, &mut rng),
    );
    let params = CashRegisterParams::Additive { epsilon: eps, delta };
    roundtrip("empty_cash_register", &CashRegisterHIndex::new(params, &mut rng));
}

#[test]
fn truncation_always_a_typed_error_never_a_panic() {
    for (name, bytes, decode) in all_cases() {
        // Every proper prefix must fail cleanly — including the empty
        // one and cuts inside the header, the payload, and the trailer.
        let step = (bytes.len() / 97).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "{name}: truncation to {cut}/{} decoded successfully",
                bytes.len()
            );
        }
    }
}

#[test]
fn bit_flips_always_detected() {
    for (name, bytes, decode) in all_cases() {
        // Flip one bit per probed byte; the FNV trailer (or an earlier
        // structural check) must catch every one of them.
        let step = (bytes.len() / 131).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(
                decode(&corrupt).is_err(),
                "{name}: flipped bit at byte {pos} went unnoticed"
            );
        }
    }
}

#[test]
fn hostile_length_prefix_rejected_without_allocation() {
    for (name, bytes, decode) in all_cases() {
        // Bytes 6..14 hold the little-endian payload length. A claim of
        // ~2^64 must be rejected up front (Truncated), not trusted by a
        // `Vec::with_capacity` somewhere downstream.
        let mut hostile = bytes.clone();
        for b in &mut hostile[6..14] {
            *b = 0xFF;
        }
        assert!(decode(&hostile).is_err(), "{name}: hostile length accepted");
    }
}

#[test]
fn foreign_frames_and_future_versions_rejected() {
    let mut store = FullStore::new();
    store.ingest(42);
    let bytes = store.to_bytes();

    // Another implementor's frame: tag mismatch, typed error.
    match CashTable::read_from(&bytes) {
        Err(SnapshotError::WrongTag { .. }) => {}
        other => panic!("expected WrongTag, got {other:?}"),
    }

    // A frame from a future format version.
    let mut future = bytes.clone();
    future[4] = future[4].wrapping_add(1);
    assert!(FullStore::read_from(&future).is_err(), "future version accepted");

    // Garbage magic.
    let mut garbage = bytes;
    garbage[0] = b'X';
    match FullStore::read_from(&garbage) {
        Err(SnapshotError::BadMagic | SnapshotError::ChecksumMismatch) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }

    // Arbitrary junk that is not even a header.
    assert!(FullStore::read_from(&[0u8; 5]).is_err());
    assert!(FullStore::read_from(&[]).is_err());
}

proptest::proptest! {
    #[test]
    fn prop_cash_table_roundtrips(
        updates in proptest::collection::vec((0u64..80, 1u64..9), 0..200),
    ) {
        let mut table = CashTable::new();
        for &(p, d) in &updates {
            table.ingest(p, d);
        }
        let back = roundtrip("cash_table", &table);
        proptest::prop_assert_eq!(back.estimate(), table.estimate());
        proptest::prop_assert_eq!(back.distinct(), table.distinct());
    }

    #[test]
    fn prop_full_store_roundtrips(
        values in proptest::collection::vec(0u64..1_000, 0..200),
    ) {
        let mut store = FullStore::new();
        store.extend_from(values.iter().copied());
        let back = roundtrip("full_store", &store);
        proptest::prop_assert_eq!(back.values(), store.values());
    }

    #[test]
    fn prop_exponential_histogram_roundtrips(
        values in proptest::collection::vec(0u64..100_000, 0..300),
    ) {
        let mut hist = ExponentialHistogram::new(Epsilon::new(0.2).unwrap());
        hist.extend_from(values.iter().copied());
        let back = roundtrip("exponential_histogram", &hist);
        proptest::prop_assert_eq!(back.estimate(), hist.estimate());
        proptest::prop_assert_eq!(back.counters(), hist.counters());
    }

    #[test]
    fn prop_dgim_roundtrips(bits in proptest::collection::vec(0u8..2, 0..500)) {
        let mut dgim = Dgim::new(100, 2);
        for &b in &bits {
            dgim.push(b == 1);
        }
        let back = roundtrip("dgim", &dgim);
        proptest::prop_assert_eq!(back.count(), dgim.count());
        proptest::prop_assert_eq!(back.time(), dgim.time());
    }

    #[test]
    fn prop_bjkst_roundtrips(seed in 0u64..64, n in 0u64..2_000) {
        let mut bjkst = Bjkst::new(0.2, 0.1, &mut StdRng::seed_from_u64(seed));
        for i in 0..n {
            bjkst.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let back = roundtrip("bjkst", &bjkst);
        proptest::prop_assert_eq!(back.estimate(), bjkst.estimate());
    }

    #[test]
    fn prop_random_junk_never_decodes_to_ok_silently(
        junk in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        // Random byte strings essentially never carry a valid FNV
        // trailer; the decoder must reject them with a typed error (and
        // in particular must not panic on any of them).
        proptest::prop_assert!(CashTable::read_from(&junk).is_err());
        proptest::prop_assert!(CashRegisterHIndex::read_from(&junk).is_err());
    }
}
