//! E3 + E4: the random-order algorithm (Theorem 9).
//!
//! * **E3** — accuracy and space across the `β/ε` regime boundary, and
//!   sensitivity to the β constant (the paper's `150ε⁻³ ln ln n` versus
//!   aggressive reductions).
//! * **E4** — necessity of the random-order assumption: the same
//!   estimator fed adversarial orders.

use crate::stats::{fraction, mean};
use crate::table::{f3, Table};
use crate::workloads::{ordered, planted_counts};
use hindex_common::{AggregateEstimator, Delta, Epsilon, Estimate, SpaceUsage};
use hindex_core::{RandomOrderEstimator, RandomOrderParams};
use hindex_stream::StreamOrder;

const SEEDS: u64 = 15;

fn estimator(eps: f64, n: u64, beta: Option<u64>) -> RandomOrderEstimator {
    RandomOrderEstimator::new(RandomOrderParams {
        epsilon: Epsilon::new(eps).unwrap(),
        delta: Delta::new(0.05).unwrap(),
        n,
        beta_override: beta,
    })
}

/// E3: accuracy and constant space across the h* sweep and β choices.
pub(crate) fn e3() {
    println!("\n## E3 — Theorem 9: random-order streams, planted h*, n = 4·h*\n");
    let eps = 0.2;
    let mut t = Table::new(&[
        "h*", "beta", "beta/eps", "mean rel.err", "within ±ε", "large-regime accepts", "words",
    ]);
    for &h in &[100u64, 1_000, 10_000, 50_000] {
        let n = 4 * h;
        let paper_beta = estimator(eps, n, None).beta();
        for beta in [None, Some(paper_beta / 10), Some(400)] {
            let mut rels = Vec::new();
            let mut within = Vec::new();
            let mut accepts = Vec::new();
            let mut words = 0usize;
            for seed in 0..SEEDS {
                let base = planted_counts(h, n as usize, seed);
                let values = ordered(&base, StreamOrder::Random, seed ^ 0xabc);
                let mut est = estimator(eps, n, beta);
                est.extend_from(values.iter().copied());
                let got = est.estimate();
                let rel = (h as f64 - got as f64).abs() / h as f64;
                rels.push(rel);
                within.push(rel <= eps + 1e-9);
                accepts.push(est.large_regime_accepted());
                words = est.space_words();
            }
            let beta_val = beta.unwrap_or(paper_beta);
            t.row(vec![
                h.to_string(),
                beta_val.to_string(),
                format!("{:.0}", beta_val as f64 / eps),
                f3(mean(&rels)),
                format!("{:.0}%", 100.0 * fraction(&within, |&b| b)),
                format!("{:.0}%", 100.0 * fraction(&accepts, |&b| b)),
                words.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "\n(h* below β/ε → the capped Algorithm-2 branch answers; above → the six-word\n\
         Algorithm-4 windows accept. The paper constant is very conservative: β/10 and\n\
         even β = 400 keep the ±ε guarantee here.)"
    );
}

/// E4: the estimator under non-random orders (assumption necessity).
pub(crate) fn e4() {
    println!("\n## E4 — Theorem 9's random-order assumption is necessary\n");
    let eps = 0.2;
    let h = 10_000u64;
    let n = 4 * h;
    let mut t = Table::new(&["order", "mean estimate", "mean rel.err", "within ±ε"]);
    for (name, order) in [
        ("random", StreamOrder::Random),
        ("ascending", StreamOrder::Ascending),
        ("descending", StreamOrder::Descending),
        ("big-last", StreamOrder::BigLast { pivot: h }),
        ("big-first", StreamOrder::BigFirst { pivot: h }),
    ] {
        let mut rels = Vec::new();
        let mut within = Vec::new();
        let mut ests = Vec::new();
        for seed in 0..SEEDS {
            let base = planted_counts(h, n as usize, seed);
            let values = ordered(&base, order, seed ^ 0x77);
            let mut est = estimator(eps, n, Some(400));
            est.extend_from(values.iter().copied());
            let got = est.estimate();
            ests.push(got as f64);
            let rel = (h as f64 - got as f64).abs() / h as f64;
            rels.push(rel);
            within.push(rel <= eps + 1e-9);
        }
        t.row(vec![
            name.into(),
            format!("{:.0}", mean(&ests)),
            f3(mean(&rels)),
            format!("{:.0}%", 100.0 * fraction(&within, |&b| b)),
        ]);
    }
    t.print();
    println!(
        "\n(true h* = {h}; adversarial orders break the window acceptance —\n\
         big-first inflates early guesses, ascending starves them — while the\n\
         deterministic Algorithms 1/2 of E1 are immune by design.)"
    );
}
