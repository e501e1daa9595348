//! E1 + E2: the deterministic aggregate-model algorithms
//! (Theorems 5 and 6).
//!
//! * **E1** — approximation quality and guarantee compliance of
//!   Algorithms 1 and 2 across ε, stream size, and order.
//! * **E2** — measured space (words) versus the theorem bounds, and
//!   versus `n`: Algorithm 1 grows like `log n`, Algorithm 2 is flat.

use crate::stats::{fraction, max, mean};
use crate::table::{f3, Table};
use crate::workloads::{ordered, zipf_counts};
use hindex_common::{AggregateEstimator, Epsilon, Estimate, SpaceUsage, h_index};
use hindex_core::{ExponentialHistogram, ShiftingWindow};
use hindex_stream::StreamOrder;

const SEEDS: u64 = 10;

fn run_one(values: &[u64], eps: f64) -> (u64, u64, usize, usize) {
    let e = Epsilon::new(eps).unwrap();
    let mut hist = ExponentialHistogram::new(e);
    let mut win = ShiftingWindow::new(e);
    for &v in values {
        hist.ingest(v);
        win.ingest(v);
    }
    (
        hist.estimate(),
        win.estimate(),
        hist.space_words(),
        win.space_words(),
    )
}

/// E1: accuracy of Algorithms 1 and 2 under adversarial and random
/// orders.
pub(crate) fn e1() {
    println!("\n## E1 — Theorems 5/6: deterministic (1−ε) approximation (Zipf 2.0 streams)\n");
    let mut t = Table::new(&[
        "n", "eps", "order", "h*", "alg1 mean rel.err", "alg1 max", "alg2 mean rel.err",
        "alg2 max", "guarantee held",
    ]);
    for &n in &[10_000u64, 100_000] {
        for &eps in &[0.05, 0.1, 0.2, 0.3] {
            for order_name in ["random", "big-last"] {
                let mut e1s = Vec::new();
                let mut e2s = Vec::new();
                let mut held = Vec::new();
                let mut truth_any = 0;
                for seed in 0..SEEDS {
                    let base = zipf_counts(n, 2.0, seed);
                    let truth = h_index(&base);
                    truth_any = truth;
                    let order = if order_name == "random" {
                        StreamOrder::Random
                    } else {
                        StreamOrder::BigLast { pivot: truth }
                    };
                    let values = ordered(&base, order, seed ^ 0x5eed);
                    let (h1, h2, _, _) = run_one(&values, eps);
                    let rel = |est: u64| (truth as f64 - est as f64).abs() / truth.max(1) as f64;
                    e1s.push(rel(h1));
                    e2s.push(rel(h2));
                    held.push(
                        h1 <= truth
                            && h2 <= truth
                            && rel(h1) <= eps + 1e-9
                            && rel(h2) <= eps + 1e-9,
                    );
                }
                t.row(vec![
                    n.to_string(),
                    eps.to_string(),
                    order_name.into(),
                    truth_any.to_string(),
                    f3(mean(&e1s)),
                    f3(max(&e1s)),
                    f3(mean(&e2s)),
                    f3(max(&e2s)),
                    format!("{:.0}%", 100.0 * fraction(&held, |&b| b)),
                ]);
            }
        }
    }
    t.print();
}

/// E2: space versus n and versus the theorem bounds.
pub(crate) fn e2() {
    println!("\n## E2 — space in words: Alg 1 grows with log n, Alg 2 is n-independent\n");
    let mut t = Table::new(&[
        "n", "eps", "alg1 words", "alg1 bound 2/e·ln n", "alg2 words", "alg2 bound 6/e·log(3/e)",
    ]);
    for &eps in &[0.1, 0.2] {
        for &n in &[1_000u64, 10_000, 100_000, 1_000_000] {
            // Values up to n (citation counts cannot exceed the paper
            // count in the model), so Alg 1's level count tracks log n.
            let values: Vec<u64> = {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                (0..n).map(|_| rng.random_range(0..=n)).collect()
            };
            let (_, _, w1, w2) = run_one(&values, eps);
            let b1 = 2.0 / eps * (n as f64).ln();
            let b2 = 6.0 / eps * (3.0 / eps).log2() + 8.0;
            t.row(vec![
                n.to_string(),
                eps.to_string(),
                w1.to_string(),
                format!("{b1:.0}"),
                w2.to_string(),
                format!("{b2:.0}"),
            ]);
        }
    }
    t.print();
    println!("\n(series: alg1 words should rise ≈ linearly in log n at fixed ε; alg2 column constant)");
}
