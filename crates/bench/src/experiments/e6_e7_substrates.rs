//! E6 + E7: the sketching substrates of §2.4.
//!
//! * **E6** — ℓ₀-sampler (Definition 3 / Lemma 4): uniformity of the
//!   returned coordinate (total-variation distance from uniform) and
//!   failure rate, including under deletions.
//! * **E7** — distinct-count estimators (the "\[10\]" dependency of
//!   Algorithm 6): relative error of BJKST and KMV across scales.

use crate::stats::{fraction, mean, tv_from_uniform};
use crate::table::{f3, Table};
use hindex_common::SpaceUsage;
use hindex_sketch::distinct::DistinctCounter;
use hindex_sketch::{Bjkst, Kmv, L0Sampler, L0SamplerParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// E6: ℓ₀-sampler uniformity and failure probability.
pub(crate) fn e6() {
    println!("\n## E6 — ℓ₀-sampler (Def. 3 / Lemma 4): uniformity and failure rate\n");
    let mut t = Table::new(&[
        "support", "deleted", "trials", "fail rate", "TV from uniform", "value errors", "words",
    ]);
    for &(support, delete_half) in &[(8u64, false), (64, false), (512, false), (64, true)] {
        let trials = 600u64;
        let mut fails = 0u64;
        let mut value_errors = 0u64;
        let live_from = if delete_half { support / 2 } else { 0 };
        let mut counts = vec![0u64; (support - live_from) as usize];
        let mut words = 0usize;
        for trial in 0..trials {
            let mut rng = StdRng::seed_from_u64(trial * 7 + 1);
            let mut s = L0Sampler::new(L0SamplerParams::default(), &mut rng);
            for i in 0..support {
                s.update(i * 13 + 5, (i + 1) as i64);
            }
            if delete_half {
                for i in 0..live_from {
                    s.update(i * 13 + 5, -((i + 1) as i64));
                }
            }
            words = s.space_words();
            match s.sample() {
                None => fails += 1,
                Some((idx, val)) => {
                    let i = (idx - 5) / 13;
                    if i < live_from || i >= support || val != (i + 1) as i64 {
                        value_errors += 1;
                    } else {
                        counts[(i - live_from) as usize] += 1;
                    }
                }
            }
        }
        t.row(vec![
            support.to_string(),
            if delete_half { "half".into() } else { "no".to_string() },
            trials.to_string(),
            f3(fails as f64 / trials as f64),
            f3(tv_from_uniform(&counts)),
            value_errors.to_string(),
            words.to_string(),
        ]);
    }
    t.print();
    println!(
        "\n(TV distance includes sampling noise ≈ 0.5·sqrt(support/trials); value\n\
         errors must be 0 — recovered counts are exact; deletions never resurface.)"
    );
}

/// E7: distinct-count accuracy across scales.
pub(crate) fn e7() {
    println!("\n## E7 — distinct-count (F₀) estimators: the Algorithm 6 dependency\n");
    let mut t = Table::new(&[
        "true D", "estimator", "eps target", "mean rel.err", "within ε", "words",
    ]);
    let seeds = 10u64;
    for &d in &[100u64, 10_000, 1_000_000] {
        for &eps in &[0.1, 0.2] {
            for which in ["bjkst", "kmv"] {
                let mut rels = Vec::new();
                let mut within = Vec::new();
                let mut words = 0usize;
                for seed in 0..seeds {
                    let mut rng = StdRng::seed_from_u64(seed * 31 + 7);
                    let est_val: u64;
                    match which {
                        "bjkst" => {
                            let mut b = Bjkst::new(eps, 0.05, &mut rng);
                            for i in 0..d {
                                b.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                            }
                            est_val = b.estimate();
                            words = b.space_words();
                        }
                        _ => {
                            let mut k = Kmv::for_epsilon(eps, &mut rng);
                            for i in 0..d {
                                k.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                            }
                            est_val = k.estimate();
                            words = k.space_words();
                        }
                    }
                    let rel = (est_val as f64 - d as f64).abs() / d as f64;
                    rels.push(rel);
                    within.push(rel <= eps);
                }
                t.row(vec![
                    d.to_string(),
                    which.into(),
                    eps.to_string(),
                    f3(mean(&rels)),
                    format!("{:.0}%", 100.0 * fraction(&within, |&b| b)),
                    words.to_string(),
                ]);
            }
        }
    }
    t.print();
}
