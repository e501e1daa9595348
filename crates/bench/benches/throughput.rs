//! E10: throughput benchmarks (self-harnessed; no external bench
//! framework is available offline).
//!
//! One group per stream model, comparing each of the paper's algorithms
//! against the exact baselines on identical workloads:
//!
//! * `aggregate_push` — per-element cost over a 100k-element Zipf
//!   stream;
//! * `aggregate_query` — estimate latency after ingestion;
//! * `cash_update` — per-update cost of the ℓ₀-sampler bank vs the
//!   exact table (10k updates);
//! * `heavy_hitters_push` — per-paper cost of Algorithm 8 vs the exact
//!   author table (2k papers);
//! * `substrates` — the primitives: field multiply, ℓ₀-sampler update,
//!   BJKST observe;
//! * `extensions` — sliding-window / g-index variants and their
//!   primitives;
//! * `kernels` — the hot-path field-arithmetic kernels, scalar vs
//!   kernel on identical workloads: fixed-base exponentiation
//!   (`mersenne_pow` vs the windowed [`PowerLadder`]), Horner hashing
//!   (per-key vs batched), 1-sparse (square-and-multiply vs ladder)
//!   and s-sparse updates, the ℓ₀ update paths (scalar vs batched),
//!   and the turnstile batch path;
//! * `obs_overhead` — the same engine workload with and without an
//!   attached [`EngineObserver`], reporting the instrumentation
//!   overhead (the observability layer's contract is < 5%);
//! * `read_plane` — the epoch-published read plane: ingest throughput
//!   with 0 vs 4 concurrent readers hammering cloned [`ReadHandle`]s
//!   (the contract is that readers never cut ingest throughput by
//!   more than ~10%), plus single-reader query latency on a live
//!   published view.
//!
//! Engine throughput, set-up, clone and merge costs are perfbench's
//! (`perfbench/README.md`), which times the whole `hindex engine` path
//! layer by layer.
//!
//! Each benchmark runs a fixed number of timed repetitions after a
//! warm-up pass and reports the *median* wall time, ns per element,
//! and element throughput. Run with:
//!
//! ```sh
//! cargo bench --offline --bench throughput
//! ```
//!
//! Flags (after `--`): `--quick` runs a reduced `kernels`-only smoke
//! pass (`scripts/check.sh`); `--only GROUP` runs a single group at
//! full size. Unrecognized flags (e.g. the `--bench` cargo injects) are
//! ignored.

// A throughput harness times with the wall clock by definition; nothing it
// measures reaches estimator state (see clippy.toml).
#![allow(clippy::disallowed_types)]

use hindex_baseline::{AuthorTable, CashTable, FullStore};
use hindex_bench::workloads::{hh_corpus, zipf_counts};
use hindex_common::{
    AggregateEstimator, CashRegisterEstimator, Delta, Engine, Epsilon, Estimate, IncrementalHIndex,
};
use hindex_core::{
    CashRegisterHIndex, CashRegisterParams, ExponentialHistogram, HeavyHitters,
    HeavyHittersParams, RandomOrderEstimator, RandomOrderParams, ShiftingWindow,
};
use hindex_engine::{EngineConfig, ReadHandle, ShardedEngine};
use hindex_obs::EngineObserver;
use std::sync::Arc;
use hindex_sketch::distinct::DistinctCounter;
use hindex_sketch::{Bjkst, L0Sampler, L0SamplerParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const N: u64 = 100_000;

/// Times `f` (whose result is black-boxed) `runs` times after one
/// warm-up pass and returns the median duration.
fn measure<T>(mut f: impl FnMut() -> T, runs: usize) -> Duration {
    black_box(f());
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Runs one named benchmark over `elems` stream elements, prints a
/// throughput line, and returns the median duration for
/// cross-benchmark ratios.
fn bench<T>(group: &str, name: &str, elems: u64, runs: usize, f: impl FnMut() -> T) -> Duration {
    let med = measure(f, runs);
    report(group, name, elems, med);
    med
}

/// Like [`bench`] but with untimed per-run setup, mirroring Criterion's
/// `iter_batched`: construction cost stays out of the measurement.
fn bench_with_setup<S, T>(
    group: &str,
    name: &str,
    elems: u64,
    runs: usize,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) -> Duration {
    black_box(routine(setup()));
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let state = setup();
            let start = Instant::now();
            black_box(routine(state));
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    let med = times[times.len() / 2];
    report(group, name, elems, med);
    med
}

fn report(group: &str, name: &str, elems: u64, med: Duration) {
    let secs = med.as_secs_f64();
    let ns_per = med.as_nanos() as f64 / elems as f64;
    let rate = elems as f64 / secs;
    println!(
        "{group:<18} {name:<24} {:>12.2?}  {ns_per:>9.1} ns/elem  {:>9.2} Melem/s",
        med,
        rate / 1e6,
    );
}

fn aggregate_push() {
    let values = zipf_counts(N, 2.0, 1);
    let eps = Epsilon::new(0.1).unwrap();
    let delta = Delta::new(0.05).unwrap();
    bench("aggregate_push", "alg1_exp_histogram", N, 11, || {
        let mut est = ExponentialHistogram::new(eps);
        est.ingest_batch(&values);
        est.estimate()
    });
    bench("aggregate_push", "alg2_shifting_window", N, 11, || {
        let mut est = ShiftingWindow::new(eps);
        for &v in &values {
            est.ingest(v);
        }
        est.estimate()
    });
    bench("aggregate_push", "alg3_random_order", N, 5, || {
        let mut est = RandomOrderEstimator::new(RandomOrderParams::new(eps, delta, N));
        for &v in &values {
            est.ingest(v);
        }
        est.estimate()
    });
    bench("aggregate_push", "exact_heap", N, 11, || {
        let mut est = IncrementalHIndex::new();
        for &v in &values {
            est.insert(v);
        }
        est.h_index()
    });
    bench("aggregate_push", "full_store", N, 11, || {
        let mut est = FullStore::new();
        for &v in &values {
            est.ingest(v);
        }
        est.estimate()
    });
}

fn aggregate_query() {
    let values = zipf_counts(N, 2.0, 2);
    let eps = Epsilon::new(0.1).unwrap();
    let mut hist = ExponentialHistogram::new(eps);
    let mut win = ShiftingWindow::new(eps);
    for &v in &values {
        hist.ingest(v);
        win.ingest(v);
    }
    bench("aggregate_query", "alg1_estimate", 1, 101, || hist.estimate());
    bench("aggregate_query", "alg2_estimate", 1, 101, || win.estimate());
}

/// 10k unit increments cycling over 700 papers.
fn cash_update() {
    let updates: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i % 700, 1)).collect();
    let n = updates.len() as u64;
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.3).unwrap(),
        delta: Delta::new(0.2).unwrap(),
    };
    // The production ingestion path: one `ingest_batch` call, which
    // coalesces the raw updates and feeds the distinct ones to every
    // sampler's batched update.
    bench("cash_update", "alg6_l0_bank_x77", n, 5, || {
        let mut est = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(3));
        est.ingest_batch(&updates);
        est.estimate()
    });
    // Reference: the same bank driven one scalar update at a time,
    // with no coalescing.
    bench("cash_update", "alg6_scalar_x77", n, 3, || {
        let mut est = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(3));
        for &(i, d) in &updates {
            est.ingest(i, d);
        }
        est.estimate()
    });
    bench("cash_update", "exact_table", n, 11, || {
        let mut est = CashTable::new();
        for &(i, d) in &updates {
            est.ingest(i, d);
        }
        est.estimate()
    });
}

fn heavy_hitters_push() {
    let corpus = hh_corpus(&[60, 40], 500, 4);
    let papers = corpus.papers();
    let n = papers.len() as u64;
    bench("heavy_hitters", "alg8_sketch", n, 5, || {
        let mut hh = HeavyHitters::new(
            HeavyHittersParams::new(Epsilon::new(0.2).unwrap(), Delta::new(0.1).unwrap()),
            &mut StdRng::seed_from_u64(5),
        );
        for p in papers {
            hh.push(p);
        }
        hh.decode().len()
    });
    bench("heavy_hitters", "exact_author_table", n, 11, || {
        let mut t = AuthorTable::new();
        for p in papers {
            t.ingest(p);
        }
        t.heavy_hitters(0.2).len()
    });
}

fn substrates() {
    const REPS: u64 = 1_000_000;
    bench("substrates", "mersenne_mul", REPS, 5, || {
        let (x, y) = (123_456_789_012_345u64, 987_654_321_098_765u64);
        let mut acc = 0u64;
        for i in 0..REPS {
            acc ^= hindex_hashing::mersenne_mul(black_box(x ^ i), black_box(y));
        }
        acc
    });
    bench("substrates", "l0_sampler_update", REPS, 3, || {
        let mut s = L0Sampler::new(L0SamplerParams::default(), &mut StdRng::seed_from_u64(6));
        for i in 0..REPS {
            s.update(black_box(i % 100_000), 1);
        }
        s.sample()
    });
    bench("substrates", "bjkst_observe", REPS, 3, || {
        let mut d = Bjkst::new(0.1, 0.05, &mut StdRng::seed_from_u64(7));
        let mut i = 0u64;
        for _ in 0..REPS {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            d.observe(black_box(i));
        }
        d.estimate()
    });
}

fn extensions() {
    use hindex_core::{ShiftingWindow, SlidingHIndex, StreamingGIndex, TurnstileHIndex};
    use hindex_sketch::{Dgim, HyperLogLog};
    let values = zipf_counts(50_000, 2.0, 9);
    let n = values.len() as u64;
    let eps = Epsilon::new(0.15).unwrap();
    bench("extensions", "sliding_window_push", n, 5, || {
        let mut est = SlidingHIndex::new(eps, 4096, 0.1);
        for &v in &values {
            est.ingest(v);
        }
        est.estimate()
    });
    bench("extensions", "sliding_window_batch", n, 5, || {
        let mut est = SlidingHIndex::new(eps, 4096, 0.1);
        est.ingest_batch(&values);
        est.estimate()
    });
    bench("extensions", "shifting_window_push", n, 5, || {
        let mut est = ShiftingWindow::new(eps);
        for &v in &values {
            est.ingest(v);
        }
        est.estimate()
    });
    bench("extensions", "shifting_window_batch", n, 5, || {
        let mut est = ShiftingWindow::new(eps);
        est.ingest_batch(&values);
        est.estimate()
    });
    bench("extensions", "g_index_push", n, 5, || {
        let mut est = StreamingGIndex::new(eps);
        for &v in &values {
            est.ingest(v);
        }
        est.estimate()
    });

    const REPS: u64 = 500_000;
    bench("ext_primitives", "dgim_push", REPS, 5, || {
        let mut d = Dgim::new(1 << 16, 8);
        for i in 0..REPS {
            d.push(black_box(i.is_multiple_of(3)));
        }
        d.count()
    });
    bench("ext_primitives", "hyperloglog_observe", REPS, 5, || {
        let mut h = HyperLogLog::new(12, &mut StdRng::seed_from_u64(1));
        let mut i = 0u64;
        for _ in 0..REPS {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            h.observe(black_box(i));
        }
        h.estimate()
    });
    bench("ext_primitives", "turnstile_update_x27", 50_000, 3, || {
        let mut est = TurnstileHIndex::with_sampler_count(
            Epsilon::new(0.4).unwrap(),
            Delta::new(0.3).unwrap(),
            27,
            &mut StdRng::seed_from_u64(2),
        );
        for i in 0..50_000u64 {
            est.update(black_box(i % 500), 1);
        }
        est.estimate()
    });
}

/// The hot-path kernels, each against the scalar path it replaces, on
/// identical inputs. `quick` shrinks sizes ~10× and drops to one timed
/// run for CI smoke passes.
fn kernels(quick: bool) {
    use hindex_common::TurnstileEstimator;
    use hindex_core::TurnstileHIndex;
    use hindex_hashing::{mersenne_pow, Hasher64, PolynomialHash, PowerLadder};
    use hindex_sketch::{OneSparseRecovery, SparseRecovery};

    let scale: u64 = if quick { 10 } else { 1 };
    let runs = if quick { 1 } else { 5 };

    // Fixed-base exponentiation: the square-and-multiply chain vs the
    // windowed table. Same base, same exponent stream.
    let reps = 1_000_000 / scale;
    let base = 123_456_789_012_345u64;
    bench("kernels", "pow_scalar", reps, runs, || {
        let mut acc = 0u64;
        for i in 0..reps {
            acc ^= mersenne_pow(base, black_box(i));
        }
        acc
    });
    let ladder = PowerLadder::new(base);
    bench("kernels", "pow_ladder", reps, runs, || {
        let mut acc = 0u64;
        for i in 0..reps {
            acc ^= ladder.pow(black_box(i));
        }
        acc
    });

    // Horner hashing: per-key vs the 4-way unrolled batch kernel.
    let keys: Vec<u64> = (0..reps).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let poly = PolynomialHash::new(12, &mut StdRng::seed_from_u64(8));
    bench("kernels", "horner_scalar", reps, runs, || {
        let mut acc = 0u64;
        for &k in &keys {
            acc ^= poly.hash(black_box(k));
        }
        acc
    });
    let mut hash_out = Vec::new();
    bench("kernels", "horner_batch", reps, runs, || {
        poly.hash_batch(black_box(&keys), &mut hash_out);
        hash_out.iter().fold(0u64, |a, &h| a ^ h)
    });

    // 1-sparse cell: `update` recomputes rⁱ by square-and-multiply
    // every call; `update_with_power` takes it from a ladder.
    let one_reps = 200_000 / scale;
    bench("kernels", "one_sparse_scalar", one_reps, runs, || {
        let mut s = OneSparseRecovery::with_point(base);
        for i in 0..one_reps {
            s.update(black_box(i % 50_000), 1);
        }
        s.decode()
    });
    bench("kernels", "one_sparse_ladder", one_reps, runs, || {
        let mut s = OneSparseRecovery::with_point(base);
        for i in 0..one_reps {
            let idx = black_box(i % 50_000);
            s.update_with_power(idx, 1, ladder.pow(idx));
        }
        s.decode()
    });

    // s-sparse recovery: scalar updates.
    let sr_reps = 200_000 / scale;
    let sr_updates: Vec<(u64, i64)> =
        (0..sr_reps).map(|i| (i % 50_000, 1)).collect();
    let sparse_proto = SparseRecovery::new(8, 6, &mut StdRng::seed_from_u64(9));
    bench("kernels", "s_sparse_scalar", sr_reps, runs, || {
        let mut s = sparse_proto.clone();
        for &(i, d) in &sr_updates {
            s.update(black_box(i), d);
        }
        s
    });

    // ℓ₀-sampler: the scalar path (now one shared ladder pow per
    // update) vs the batched path.
    let l0_reps = 500_000 / scale;
    let l0_updates: Vec<(u64, i64)> =
        (0..l0_reps).map(|i| (i % 100_000, 1)).collect();
    let l0_proto = L0Sampler::new(L0SamplerParams::default(), &mut StdRng::seed_from_u64(6));
    bench("kernels", "l0_update_scalar", l0_reps, runs.min(3), || {
        let mut s = l0_proto.clone();
        for &(i, d) in &l0_updates {
            s.update(black_box(i), d);
        }
        s.sample()
    });
    bench("kernels", "l0_update_batch", l0_reps, runs.min(3), || {
        let mut s = l0_proto.clone();
        s.update_batch(black_box(&l0_updates));
        s.sample()
    });

    // Turnstile estimator, 27-sampler bank (mirrors the
    // `ext_primitives` workload): scalar vs coalescing batch path.
    let tn_reps = 50_000 / scale;
    let tn_updates: Vec<(u64, i64)> = (0..tn_reps).map(|i| (i % 500, 1)).collect();
    let tn_proto = TurnstileHIndex::with_sampler_count(
        Epsilon::new(0.4).unwrap(),
        Delta::new(0.3).unwrap(),
        27,
        &mut StdRng::seed_from_u64(2),
    );
    bench("kernels", "turnstile_scalar_x27", tn_reps, runs.min(3), || {
        let mut est = tn_proto.clone();
        for &(i, d) in &tn_updates {
            TurnstileEstimator::ingest(&mut est, black_box(i), d);
        }
        est.estimate()
    });
    bench("kernels", "turnstile_batch_x27", tn_reps, runs.min(3), || {
        let mut est = tn_proto.clone();
        est.ingest_batch(black_box(&tn_updates));
        est.estimate()
    });
}

/// Instrumented-vs-plain engine on the `cash_update` workload: the
/// observability layer's overhead, measured. Hooks fire at batch
/// boundaries only, so the uninstrumented engine pays one
/// branch-on-`None` per flush and the instrumented one a handful of
/// relaxed atomic adds — the contract (held by the determinism suite
/// and asserted in docs) is that this stays under 5%.
fn obs_overhead() {
    let updates: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i % 700, 1)).collect();
    let n = updates.len() as u64;
    let run = |config: EngineConfig, updates: &[(u64, u64)]| {
        let mut engine = ShardedEngine::new(config, CashTable::new());
        engine.ingest_batch(updates);
        engine.finish().unwrap().estimate()
    };
    let plain = bench("obs_overhead", "engine_plain", n, 7, || {
        let config = EngineConfig::builder().shards(4).batch(256).build().unwrap();
        run(config, &updates)
    });
    let observed = bench("obs_overhead", "engine_observed", n, 7, || {
        let config = EngineConfig::builder()
            .shards(4)
            .batch(256)
            .observer(Arc::new(EngineObserver::new(4)))
            .build()
            .unwrap();
        run(config, &updates)
    });
    let overhead = observed.as_secs_f64() / plain.as_secs_f64() - 1.0;
    println!(
        "{:<18} {:<24} {:>10.2}% instrumentation overhead",
        "", "", overhead * 100.0
    );
}

/// The read plane under contention: the same `cash_update`-style
/// workload ingested with an epoch-publishing plane attached, with 0
/// and then 4 reader threads polling cloned [`ReadHandle`]s for the
/// whole run. Readers poll at a bounded rate (~2k queries/s each, an
/// aggressive dashboard) rather than busy-spinning: a query is just an
/// atomic load plus a short read-lock on an `Arc` slot, so what a spin
/// loop would measure on a small host is timeslice starvation, not the
/// plane. Ingest throughput must not drop by more than ~10% — the
/// printed ratio is the contract's evidence.
fn read_plane() {
    use std::sync::atomic::{AtomicBool, Ordering};
    type ContendedSetup =
        (ShardedEngine<CashTable, (u64, u64)>, Arc<AtomicBool>, Vec<std::thread::JoinHandle<u64>>);
    let updates: Vec<(u64, u64)> = (0..50_000u64).map(|i| (i % 700, 1)).collect();
    let n = updates.len() as u64;
    let config = || {
        EngineConfig::builder()
            .shards(4)
            .batch(256)
            .publish_interval(2_048)
            .build()
            .unwrap()
    };
    let quiet = bench_with_setup(
        "read_plane",
        "ingest_readers_0",
        n,
        7,
        || ShardedEngine::new(config(), CashTable::new()),
        |mut engine: ShardedEngine<CashTable, (u64, u64)>| {
            engine.ingest_batch(&updates);
            engine.finish().unwrap().estimate()
        },
    );
    let contended = bench_with_setup(
        "read_plane",
        "ingest_readers_4",
        n,
        7,
        || {
            let engine = ShardedEngine::new(config(), CashTable::new());
            let handle = engine.read_handle().unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let (h, s) = (handle.clone(), Arc::clone(&stop));
                    std::thread::spawn(move || {
                        let mut seen = 0u64;
                        while !s.load(Ordering::Relaxed) {
                            if let Some(view) = h.query() {
                                seen += black_box(view.epoch() > 0) as u64;
                            }
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        seen
                    })
                })
                .collect();
            (engine, stop, readers)
        },
        |(mut engine, stop, readers): ContendedSetup| {
            engine.ingest_batch(&updates);
            let estimate = engine.finish().unwrap().estimate();
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                black_box(r.join().unwrap());
            }
            estimate
        },
    );
    let slowdown = contended.as_secs_f64() / quiet.as_secs_f64() - 1.0;
    println!(
        "{:<18} {:<24} {:>10.2}% ingest slowdown under 4 readers",
        "", "", slowdown * 100.0
    );

    // Single-reader query cost against a live published view (the
    // handle stays valid after the engine retires — it owns the cell).
    let mut engine = ShardedEngine::new(config(), CashTable::new());
    let handle: ReadHandle<CashTable> = engine.read_handle().unwrap();
    engine.ingest_batch(&updates);
    let epoch = engine.publish_now().expect("engine has a read plane");
    assert!(handle.wait_for_epoch(epoch, 5_000), "publish never completed");
    engine.finish().unwrap();
    const QUERIES: u64 = 1_000_000;
    bench("read_plane", "reader_query", QUERIES, 7, || {
        let mut acc = 0u64;
        for _ in 0..QUERIES {
            acc ^= black_box(handle.query().unwrap().epoch());
        }
        acc
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    println!(
        "{:<18} {:<24} {:>13}  {:>17}  {:>15}",
        "group", "benchmark", "median", "per element", "throughput"
    );
    if quick {
        // CI smoke: the kernel comparisons only, at ~10× reduced sizes.
        kernels(true);
    } else if let Some(group) = only {
        // One group at full size, for targeted runs.
        match group.as_str() {
            "aggregate_push" => aggregate_push(),
            "aggregate_query" => aggregate_query(),
            "cash_update" => cash_update(),
            "heavy_hitters" => heavy_hitters_push(),
            "substrates" => substrates(),
            "extensions" => extensions(),
            "kernels" => kernels(false),
            "obs_overhead" => obs_overhead(),
            "read_plane" => read_plane(),
            other => {
                eprintln!("unknown --only group `{other}`");
                std::process::exit(2);
            }
        }
    } else {
        aggregate_push();
        aggregate_query();
        cash_update();
        heavy_hitters_push();
        substrates();
        extensions();
        kernels(false);
        obs_overhead();
        read_plane();
    }
}
