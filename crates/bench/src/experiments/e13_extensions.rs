//! E13: the beyond-the-paper extensions (§5 / footnote 1).
//!
//! * **(a)** sliding-window H-index: tracking error against the exact
//!   windowed H-index across window sizes and regimes;
//! * **(b)** turnstile H-index: accuracy through a retraction wave,
//!   against the exact turnstile table;
//! * **(c)** the F₀ estimator trio (BJKST / KMV / HyperLogLog):
//!   accuracy vs space, motivating the default choice inside
//!   Algorithm 6.

use crate::stats::{fraction, mean};
use crate::table::{f3, Table};
use hindex_baseline::TurnstileTable;
use hindex_common::{AggregateEstimator, Delta, Epsilon, Estimate, SpaceUsage, h_index};
use hindex_core::{SlidingHIndex, TurnstileHIndex};
use hindex_sketch::distinct::DistinctCounter;
use hindex_sketch::{Bjkst, HyperLogLog, Kmv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// E13: all three extension validations.
pub(crate) fn e13() {
    e13a();
    e13b();
    e13c();
}

fn e13a() {
    println!("\n## E13a — sliding-window H-index vs exact window truth\n");
    let mut t = Table::new(&["window W", "eps grid", "eps dgim", "mean rel.err", "worst", "words"]);
    for &w in &[100u64, 500, 2_000] {
        let (e_grid, e_win) = (0.15, 0.05);
        let mut est = SlidingHIndex::new(Epsilon::new(e_grid).unwrap(), w, e_win);
        let mut buf: VecDeque<u64> = VecDeque::new();
        let mut rng = StdRng::seed_from_u64(w);
        let mut errs = Vec::new();
        let mut worst = 0.0f64;
        for step in 0..10_000u64 {
            // Two regimes: strong first half, weak second half.
            let v = if step < 5_000 {
                rng.random_range(0..2_000)
            } else {
                rng.random_range(0..50)
            };
            est.ingest(v);
            buf.push_back(v);
            if buf.len() as u64 > w {
                buf.pop_front();
            }
            if step % 250 == 0 && step > w {
                let values: Vec<u64> = buf.iter().copied().collect();
                let truth = h_index(&values);
                if truth > 5 {
                    let rel = (est.estimate() as f64 - truth as f64).abs() / truth as f64;
                    errs.push(rel);
                    worst = worst.max(rel);
                }
            }
        }
        t.row(vec![
            w.to_string(),
            e_grid.to_string(),
            e_win.to_string(),
            f3(mean(&errs)),
            f3(worst),
            est.space_words().to_string(),
        ]);
    }
    t.print();
    println!("\n(error budget ≈ ε_grid + 2·ε_dgim = 0.25; the regime switch at step 5000 is\n tracked with the window's natural lag)");
}

fn e13b() {
    println!("\n## E13b — turnstile H-index through a retraction wave\n");
    let eps = 0.25;
    let mut t = Table::new(&["phase", "truth h", "mean sketch h", "within ±ε·n", "exact words", "sketch words"]);
    type Phase = (&'static str, Box<dyn Fn(&mut TurnstileHIndex, &mut TurnstileTable)>);
    let phases: [Phase; 3] = [
        (
            "publish (40×50)",
            Box::new(|s, e| {
                for p in 0..40u64 {
                    s.update(p, 50);
                    e.ingest(p, 50);
                }
            }),
        ),
        (
            "retract 25 papers",
            Box::new(|s, e| {
                for p in 0..25u64 {
                    s.update(p, -50);
                    e.ingest(p, -50);
                }
            }),
        ),
        (
            "republish 10",
            Box::new(|s, e| {
                for p in 0..10u64 {
                    s.update(p, 60);
                    e.ingest(p, 60);
                }
            }),
        ),
    ];
    let trials = 8u64;
    let mut sketches: Vec<TurnstileHIndex> = (0..trials)
        .map(|seed| {
            TurnstileHIndex::new(
                Epsilon::new(eps).unwrap(),
                Delta::new(0.1).unwrap(),
                &mut StdRng::seed_from_u64(seed),
            )
        })
        .collect();
    let mut exact = TurnstileTable::new();
    for (name, apply) in phases {
        let mut first = true;
        for s in &mut sketches {
            if first {
                apply(s, &mut exact);
                first = false;
            } else {
                let mut dummy = TurnstileTable::new();
                apply(s, &mut dummy);
            }
        }
        let truth = exact.h_index();
        // The additive guarantee is against the vector dimension: the
        // 40 papers ever touched, not the currently non-zero ones.
        let n_dim = 40f64;
        let ests: Vec<f64> = sketches.iter().map(|s| s.estimate() as f64).collect();
        let within = fraction(&ests, |&e| (e - truth as f64).abs() <= eps * n_dim + 1e-9);
        t.row(vec![
            name.into(),
            truth.to_string(),
            format!("{:.1}", mean(&ests)),
            format!("{:.0}%", 100.0 * within),
            exact.space_words().to_string(),
            sketches[0].space_words().to_string(),
        ]);
    }
    t.print();
    println!("\n(the estimate falls with the retractions — impossible for any cash-register\n algorithm — and recovers with the republications)");
}

fn e13c() {
    println!("\n## E13c — the F₀ trio: accuracy vs space (D = 100 000 keys)\n");
    let d = 100_000u64;
    let mut t = Table::new(&["estimator", "mean rel.err", "worst", "words"]);
    for which in ["bjkst", "kmv", "hyperloglog"] {
        let mut rels = Vec::new();
        let mut words = 0;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed * 13 + 1);
            let est_val = match which {
                "bjkst" => {
                    let mut e = Bjkst::new(0.1, 0.05, &mut rng);
                    for i in 0..d {
                        e.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    }
                    words = e.space_words();
                    e.estimate()
                }
                "kmv" => {
                    let mut e = Kmv::for_epsilon(0.1, &mut rng);
                    for i in 0..d {
                        e.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    }
                    words = e.space_words();
                    e.estimate()
                }
                _ => {
                    let mut e = HyperLogLog::new(12, &mut rng);
                    for i in 0..d {
                        e.observe(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    }
                    words = e.space_words();
                    e.estimate()
                }
            };
            rels.push((est_val as f64 - d as f64).abs() / d as f64);
        }
        t.row(vec![
            which.into(),
            f3(mean(&rels)),
            f3(crate::stats::max(&rels)),
            words.to_string(),
        ]);
    }
    t.print();
    println!("\n(BJKST: proof-grade (ε, δ) contract, used inside Algorithm 6;\n HyperLogLog: ~50× smaller registers for similar practical accuracy)");
}
