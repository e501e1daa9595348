//! Adversarial and pathological inputs against every estimator.
//!
//! The deterministic algorithms must survive *any* input; the
//! randomized ones must survive any input *distribution* (their
//! randomness is internal). These tests throw the worst shapes we know
//! at each.

use hindex::prelude::*;
use hindex_common::{Snapshot, SpaceUsage};
use hindex_common::Estimate;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps(e: f64) -> Epsilon {
    Epsilon::new(e).unwrap()
}

fn assert_sandwich(name: &str, values: &[u64], e: f64) {
    let truth = h_index(values);
    let mut hist = ExponentialHistogram::new(eps(e));
    let mut win = ShiftingWindow::new(eps(e));
    hist.extend_from(values.iter().copied());
    win.extend_from(values.iter().copied());
    for (alg, got) in [("hist", hist.estimate()), ("window", win.estimate())] {
        assert!(got <= truth, "{name}/{alg}: over ({got} > {truth})");
        assert!(
            got as f64 >= (1.0 - e) * truth as f64,
            "{name}/{alg}: under ({got} < (1-{e})·{truth})"
        );
    }
}

#[test]
fn single_element_streams() {
    for v in [0u64, 1, 2, u64::MAX] {
        assert_sandwich("single", &[v], 0.1);
    }
}

#[test]
fn all_identical_values() {
    for v in [1u64, 7, 1_000_000] {
        for n in [1usize, 10, 1000] {
            assert_sandwich("identical", &vec![v; n], 0.15);
        }
    }
}

#[test]
fn extreme_values_mixed_with_zeros() {
    let mut values = vec![u64::MAX; 100];
    values.extend(vec![0u64; 10_000]);
    assert_sandwich("max-and-zero", &values, 0.1);
}

#[test]
fn sawtooth_and_alternating() {
    let sawtooth: Vec<u64> = (0..5000u64).map(|i| i % 100).collect();
    assert_sandwich("sawtooth", &sawtooth, 0.1);
    let alternating: Vec<u64> = (0..5000u64).map(|i| if i % 2 == 0 { 1 } else { 1_000 }).collect();
    assert_sandwich("alternating", &alternating, 0.1);
}

#[test]
fn h_exactly_on_grid_boundaries() {
    // Plant h* at integer grid thresholds of the ε = 0.25 grid (the
    // exact values where ceil/level arithmetic is touchiest).
    let e = 0.25;
    let grid = hindex_common::ExpGrid::new(e);
    for level in 3..20u32 {
        let h = grid.int_threshold(level);
        let corpus = hindex_stream::generator::planted_h_corpus(h, (3 * h) as usize, level as u64);
        assert_sandwich("grid-boundary", &corpus.citation_counts(), e);
    }
}

#[test]
fn off_by_one_around_thresholds() {
    // h*, h*±1 around a few grid points: the estimate must track within
    // the band for each.
    let e = 0.2;
    for base in [47u64, 100, 333] {
        for h in [base - 1, base, base + 1] {
            let corpus = hindex_stream::generator::planted_h_corpus(h, (2 * h) as usize, h);
            assert_sandwich("off-by-one", &corpus.citation_counts(), e);
        }
    }
}

#[test]
fn shifting_window_survives_bursts_of_giants() {
    // Giant values interleaved with dust — repeatedly forces the
    // shifting cascade through many levels at once.
    let mut values = Vec::new();
    for round in 1..=50u64 {
        values.extend(vec![round * 1_000_000; 20]);
        values.extend(vec![1u64; 100]);
    }
    assert_sandwich("giant-bursts", &values, 0.1);
}

#[test]
fn streaming_g_index_pathologies() {
    use hindex_common::variants::g_index;
    // One enormous value (g capped by n), then many tiny ones.
    let mut values = vec![1_000_000u64];
    values.extend(vec![1u64; 500]);
    let truth = g_index(&values);
    let mut est = StreamingGIndex::new(eps(0.1));
    est.extend_from(values.iter().copied());
    let got = est.estimate();
    assert!(got <= truth);
    assert!(got as f64 >= 0.7 * truth as f64, "got {got} truth {truth}");
}

#[test]
fn cash_register_adversarial_update_orders() {
    // The same multiset of updates in three hostile orders: per-paper
    // contiguous, round-robin, and strictly interleaved by delta size.
    let params = CashRegisterParams::Additive {
        epsilon: eps(0.25),
        delta: Delta::new(0.1).unwrap(),
    };
    let n_papers = 40u64;
    let per_paper = 30u64; // h* = 30... all papers get 30 → h = 40? #≥40 = 0... h = 30.
    let make_updates = |order: u8| -> Vec<(u64, u64)> {
        let mut u = Vec::new();
        match order {
            0 => {
                for p in 0..n_papers {
                    for _ in 0..per_paper {
                        u.push((p, 1));
                    }
                }
            }
            1 => {
                for _ in 0..per_paper {
                    for p in 0..n_papers {
                        u.push((p, 1));
                    }
                }
            }
            _ => {
                for p in 0..n_papers {
                    u.push((p, per_paper)); // one burst each
                }
            }
        }
        u
    };
    let truth = {
        let values = vec![per_paper; n_papers as usize];
        h_index(&values)
    };
    for order in 0..3u8 {
        let mut ok = 0;
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut est = CashRegisterHIndex::new(params, &mut rng);
            for &(p, d) in &make_updates(order) {
                est.ingest(p, d);
            }
            let got = est.estimate();
            if (got as f64 - truth as f64).abs() <= 0.25 * n_papers as f64 {
                ok += 1;
            }
        }
        assert!(ok >= 4, "order {order}: only {ok}/5 within bound");
    }
}

#[test]
fn heavy_hitters_with_zero_citation_flood() {
    // An author publishing a flood of never-cited papers must not be
    // reported, and must not crowd out the real heavy hitter.
    let mut corpus = Corpus::new();
    for i in 0..60u64 {
        corpus.push(Paper::solo(i, 0, 80)); // the real one, h = 60
    }
    for i in 60..5060u64 {
        corpus.push(Paper::solo(i, 1, 0)); // the flooder
    }
    let mut rng = StdRng::seed_from_u64(3);
    let mut hh = HeavyHitters::new(
        HeavyHittersParams::new(eps(0.2), Delta::new(0.1).unwrap()),
        &mut rng,
    );
    for p in corpus.papers() {
        hh.push(p);
    }
    let out = hh.decode();
    assert!(out.iter().any(|c| c.author == AuthorId(0)), "real HH missed");
    assert!(
        out.iter().all(|c| c.author != AuthorId(1)),
        "zero-citation flooder reported"
    );
}

#[test]
fn sliding_window_adversarial_expiry_boundary() {
    // Impact placed exactly at the expiry edge: estimates must fall
    // once (and only once) the support leaves the window.
    let w = 100u64;
    let mut est = SlidingHIndex::new(eps(0.2), w, 0.05);
    for _ in 0..100 {
        est.ingest(500);
    }
    assert!(est.estimate() >= 70);
    // 99 junk items: one support element still inside the window.
    for _ in 0..99 {
        est.ingest(0);
    }
    let nearly = est.estimate();
    assert!(nearly <= 5, "stale impact lingers: {nearly}");
    est.ingest(0);
    assert_eq!(est.estimate(), 0);
}

#[test]
fn estimators_never_panic_on_fuzzed_inputs() {
    // Quick fuzz: byte-derived values through every aggregate estimator.
    let mut rng = StdRng::seed_from_u64(4);
    for case in 0..50u64 {
        use rand::Rng as _;
        let len = rng.random_range(0..300);
        let values: Vec<u64> = (0..len)
            .map(|_| {
                let shape: u8 = rng.random_range(0..4);
                match shape {
                    0 => rng.random_range(0..10),
                    1 => rng.random_range(0..1_000_000),
                    2 => u64::from(u32::MAX),
                    _ => 1u64 << rng.random_range(0..60),
                }
            })
            .collect();
        let mut hist = ExponentialHistogram::new(eps(0.3));
        let mut win = ShiftingWindow::new(eps(0.3));
        let mut g = StreamingGIndex::new(eps(0.3));
        let mut a = StreamingAlphaIndex::new(eps(0.3), 2.5);
        let mut s = SlidingHIndex::new(eps(0.3), 64, 0.1);
        for &v in &values {
            hist.ingest(v);
            win.ingest(v);
            g.ingest(v);
            a.ingest(v);
            s.ingest(v);
        }
        // Touch every estimate and space path.
        let _ = (
            hist.estimate(),
            win.estimate(),
            g.estimate(),
            a.estimate(),
            s.estimate(),
            hist.space_words() + win.space_words() + s.space_words(),
            case,
        );
    }
}

/// Regression: 1-sparse accumulators at the representable extremes.
/// `ℓ` and `z` accumulate `δ` and `δ·i` in wrapping `i128`; before the
/// wrapping fix, a handful of `i64::MIN`-weight updates at a huge index
/// overflowed `z` and aborted in debug builds. The sums are exact mod
/// 2¹²⁸, so cancellation must walk the cell back to the empty state bit
/// for bit — and intermediate, non-representable states must decode
/// gracefully rather than panic.
#[test]
fn one_sparse_survives_extreme_index_and_delta() {
    use hindex_sketch::one_sparse::MAX_INDEX;
    use hindex_sketch::{OneSparseRecovery, Recovery};
    let empty = OneSparseRecovery::with_point(123_456_789);
    let mut cell = empty;
    // |δ·i| ≈ 2⁶³·2⁶¹ = 2¹²⁴ per update: 16 of them push Σ δ·i past
    // i128 range (pre-fix: overflow abort in debug builds).
    for _ in 0..16 {
        cell.update(MAX_INDEX, i64::MIN);
        let _ = cell.decode(); // mid-flight decode must not abort either
    }
    // 2 × 2⁶² cancels one −2⁶³, so 32 of them cancel all 16 MINs.
    for _ in 0..32 {
        cell.update(MAX_INDEX, 1i64 << 62);
    }
    assert_eq!(cell.decode(), Recovery::Zero);
    // And a decodable extreme: one live coordinate at the top index.
    cell.update(MAX_INDEX, i64::MAX);
    assert_eq!(
        cell.decode(),
        Recovery::One { index: MAX_INDEX, value: i64::MAX }
    );
}

/// Regression: the 1-sparse decode computed `z % ℓ`, which overflows
/// and panics at `ℓ = −1`, `z = i128::MIN`. This 49-update turnstile
/// stream puts exactly that state in every whole-vector checksum:
/// `ℓ = 32·(−2⁶²) + 16·(2⁶³ − 1) + 15 = −1` and
/// `z = 32·2⁶⁰·(−2⁶²) = −2¹²⁷`. The vector it sketches, `V[0] = 2⁶⁷ − 1`
/// and `V[2⁶⁰] = −2⁶⁷`, is not 1-sparse and neither value fits the
/// `i64` a decode returns, so every entry point must decline to decode
/// instead of panicking. Snapshot decoding accepts any `ℓ` and `z`, so
/// hostile bytes reach the same state.
#[test]
fn decode_survives_remainder_overflow_state() {
    use hindex_common::snapshot::{fnv1a, Snapshot};
    use hindex_sketch::{L0Sampler, OneSparseRecovery, Recovery, SparseRecovery};
    let mut stream = vec![(1u64 << 60, -(1i64 << 62)); 32];
    stream.extend([(0, i64::MAX); 16]);
    stream.push((0, 15));
    let mut cell = OneSparseRecovery::with_point(123_456_789);
    let mut grid = SparseRecovery::new(4, 6, &mut StdRng::seed_from_u64(1));
    let mut sampler = L0Sampler::with_defaults(&mut StdRng::seed_from_u64(2));
    let mut turnstile = TurnstileHIndex::with_sampler_count(
        eps(0.4),
        Delta::new(0.3).unwrap(),
        9,
        &mut StdRng::seed_from_u64(3),
    );
    for &(i, d) in &stream {
        cell.update(i, d);
        grid.update(i, d);
        sampler.update(i, d);
        TurnstileEstimator::ingest(&mut turnstile, i, d);
    }
    assert_eq!(cell.decode(), Recovery::NotSparse);
    assert_eq!(grid.decode(), None);
    assert_eq!(sampler.sample(), None);
    assert_eq!(turnstile.estimate(), 0);

    // The same (ℓ, z) written over a valid frame, checksum resealed.
    let mut frame = OneSparseRecovery::with_point(123_456_789).to_bytes();
    frame[14..30].copy_from_slice(&(-1i128).to_le_bytes());
    frame[30..46].copy_from_slice(&i128::MIN.to_le_bytes());
    let end = frame.len() - 8;
    let checksum = fnv1a(&frame[..end]);
    frame[end..].copy_from_slice(&checksum.to_le_bytes());
    let (hostile, _) = OneSparseRecovery::read_from(&frame).unwrap();
    assert_eq!(hostile.decode(), Recovery::NotSparse);
}

/// Regression: the turnstile batch path coalesces per-paper deltas in
/// `i128` and clamps to `i64` — `i64::MIN` (whose negation overflows
/// `i64`) and saturating mixes around it must match the serial
/// one-update-at-a-time path exactly, including the internal field
/// state when the invariant layer is armed.
#[test]
fn turnstile_batch_coalescing_handles_i64_min() {
    let proto = TurnstileHIndex::with_sampler_count(
        Epsilon::new(0.4).unwrap(),
        Delta::new(0.3).unwrap(),
        9,
        &mut StdRng::seed_from_u64(55),
    );
    let updates: Vec<(u64, i64)> = vec![
        (5, i64::MIN),
        (7, 3),
        (5, i64::MIN), // coalesced sum −2⁶⁴: overflows i64, exact in i128
        (5, i64::MAX),
        (9, -1),
        (5, i64::MAX), // net −2 on paper 5
        (9, 1),        // exact cancellation inside one batch
    ];
    let mut serial = proto.clone();
    for &(i, d) in &updates {
        TurnstileEstimator::ingest(&mut serial, i, d);
    }
    let mut batched = proto.clone();
    batched.ingest_batch(&updates);
    assert_eq!(batched.estimate(), serial.estimate());
    assert_eq!(batched.frame_digest(), serial.frame_digest());
}

/// Alg 6's batch path (coalesce, then every sampler's batched update)
/// promises bit-identical sampler state to the scalar path. Hit batch
/// lengths with and without a remainder for the 4-lane level-hash
/// kernel, and the top of the index domain in the same batches.
#[test]
fn cash_register_bank_tiles_at_boundaries_and_max_index() {
    use hindex_sketch::one_sparse::MAX_INDEX;
    let params = CashRegisterParams::Additive {
        epsilon: eps(0.3),
        delta: Delta::new(0.2).unwrap(),
    };
    for size in [1usize, 255, 256, 257, 700] {
        // Distinct indices (so coalescing is the identity and the
        // batch length is `size`), every 7th at the domain ceiling.
        let updates: Vec<(u64, u64)> = (0..size as u64)
            .map(|i| {
                let p = if i % 7 == 0 { MAX_INDEX - i } else { i * 977 + 1 };
                (p, i % 5 + 1)
            })
            .collect();
        let mut scalar = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(77));
        let mut batched = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(77));
        for &(p, d) in &updates {
            scalar.ingest(p, d);
        }
        batched.ingest_batch(&updates);
        assert_eq!(batched.estimate(), scalar.estimate(), "size {size}");
        assert_eq!(batched.frame_digest(), scalar.frame_digest(), "size {size}");
    }
}

/// Sharding the bank path across engine workers and merging back must
/// land on the serial stream's exact state: the samplers are linear
/// over the exact field, so the fan-out is invisible in the digest.
#[test]
fn cash_register_engine_sharded_state_matches_serial() {
    use hindex_engine::{EngineConfig, ShardedEngine};
    let params = CashRegisterParams::Additive {
        epsilon: eps(0.3),
        delta: Delta::new(0.2).unwrap(),
    };
    let proto = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(5));
    let updates: Vec<(u64, u64)> = (0..2000u64).map(|i| (i % 331, i % 7 + 1)).collect();
    let mut serial = proto.clone();
    serial.ingest_batch(&updates);
    let config = EngineConfig::builder()
        .shards(4)
        .batch(64)
        .build()
        .unwrap();
    let mut engine = ShardedEngine::new(config, proto);
    engine.ingest_batch(&updates);
    let merged = engine.finish().unwrap();
    assert_eq!(merged.estimate(), serial.estimate());
    assert_eq!(merged.frame_digest(), serial.frame_digest());
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Any update multiset, any chunking: the bank batch path must
    /// reproduce the scalar path's sampler state exactly.
    #[test]
    fn prop_bank_batch_bit_identical_to_scalar(
        updates in proptest::collection::vec((0u64..100_000, 1u64..50), 1..300),
        chunk in 1usize..300,
        seed in 0u64..8,
    ) {
        let params = CashRegisterParams::Additive {
            epsilon: eps(0.3),
            delta: Delta::new(0.2).unwrap(),
        };
        let mut scalar = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(seed));
        let mut batched = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(seed));
        for &(p, d) in &updates {
            scalar.ingest(p, d);
        }
        for c in updates.chunks(chunk) {
            batched.ingest_batch(c);
        }
        proptest::prop_assert_eq!(batched.estimate(), scalar.estimate());
        proptest::prop_assert_eq!(batched.frame_digest(), scalar.frame_digest());
    }
}

/// Regression: field helpers at the domain extremes. `from_i64` must
/// embed `i64::MIN` correctly (its magnitude is not representable as a
/// positive `i64`), and products of residues next to `p − 1` must stay
/// canonical — the weights adversarial retraction streams produce.
#[test]
fn field_helpers_at_extremes() {
    use hindex_hashing::{from_i64, is_canonical, mersenne_mul, mersenne_pow, MERSENNE_P};
    assert_eq!(from_i64(i64::MIN), MERSENNE_P - 4); // −2⁶³ ≡ −4 (mod 2⁶¹−1)
    assert_eq!(from_i64(i64::MAX), 3); // 2⁶³ − 1 ≡ 4 − 1
    for x in [MERSENNE_P - 1, MERSENNE_P - 2, 1, 2] {
        for y in [MERSENNE_P - 1, MERSENNE_P - 2] {
            let prod = mersenne_mul(x, y);
            assert!(is_canonical(prod), "mul({x}, {y}) = {prod} left the field");
        }
    }
    // (p−1)² ≡ 1: the top residue is its own inverse.
    assert_eq!(mersenne_mul(MERSENNE_P - 1, MERSENNE_P - 1), 1);
    assert_eq!(mersenne_pow(MERSENNE_P - 1, u64::MAX % 2), MERSENNE_P - 1);
}
