//! E12: ablations of the design choices DESIGN.md calls out.
//!
//! * **(a)** Shifting-window length: Theorem 6 sizes the window at
//!   `r = ⌈log_{1+ε'}(3/ε')⌉ + 2`; shrinking it voids the undercount
//!   bound. Measured: guarantee violation rate on support-arrives-late
//!   adversarial streams as the window shrinks.
//! * **(b)** Why H-index heavy hitters need Algorithm 8: ranking
//!   authors by CountMin citation volume versus the sketch's output,
//!   scored against the true top-impact authors.

use crate::stats::fraction;
use crate::table::{f3, Table};
use crate::workloads::ordered;
use hindex_baseline::AuthorTable;
use hindex_common::{AggregateEstimator, Delta, Epsilon, Estimate, SpaceUsage, h_index};
use hindex_core::{HeavyHitters, HeavyHittersParams, ShiftingWindow};
use hindex_sketch::{CountMin, MisraGries};
use hindex_stream::generator::planted_heavy_hitters;
use hindex_stream::{Paper, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// E12: both ablations.
pub(crate) fn e12() {
    e12a();
    e12b();
}

fn e12a() {
    println!("\n## E12a — ablation: shifting-window length vs the Theorem 6 guarantee\n");
    let eps = 0.15;
    let e = Epsilon::new(eps).unwrap();
    let full_r = {
        let inner = eps / 3.0;
        ((3.0 / inner).ln() / (1.0 + inner).ln()).ceil() as usize + 2
    };
    let mut t = Table::new(&[
        "window r", "fraction of full", "words", "violation rate", "worst rel.err",
    ]);
    for &frac in &[1.0, 0.5, 0.25, 0.125] {
        let r = ((full_r as f64 * frac).round() as usize).max(2);
        let mut violations = Vec::new();
        let mut worst = 0.0f64;
        let mut words = 0usize;
        for seed in 0..30u64 {
            // Support-arrives-late adversarial stream: high levels are
            // created as late as possible, maximizing undercount.
            let mut values: Vec<u64> = vec![2; 20_000];
            let h = 2_000u64;
            values.extend(std::iter::repeat_n(10 * h, h as usize));
            let values = ordered(&values, StreamOrder::Ascending, seed);
            let truth = h_index(&values);
            let mut est = ShiftingWindow::with_window_len(e, r, None);
            est.extend_from(values.iter().copied());
            let got = est.estimate();
            words = est.space_words();
            let rel = (truth as f64 - got as f64).abs() / truth as f64;
            worst = worst.max(rel);
            violations.push(got > truth || rel > eps + 1e-9);
        }
        t.row(vec![
            r.to_string(),
            format!("{frac:.3}"),
            words.to_string(),
            format!("{:.0}%", 100.0 * fraction(&violations, |&b| b)),
            f3(worst),
        ]);
    }
    t.print();
    println!("\n(the full window never violates; shrinking it trades words for correctness)");
}

fn e12b() {
    println!("\n## E12b — ablation: citation-volume heavy hitters ≠ H-index heavy hitters\n");
    // Corpus: three high-H authors plus three "one-hit wonder" authors
    // whose single paper out-cites everything.
    let mut corpus = planted_heavy_hitters(&[70, 55, 45], 60, 4, 3, 5);
    let base_id = corpus.len() as u64;
    for k in 0..3u64 {
        corpus.push(Paper::solo(base_id + k, 500 + k, 200_000 * (k + 1)));
    }
    let truth = corpus.ground_truth();
    let eps = 0.1;
    let expected = truth.heavy_hitters(eps);

    let mut rng = StdRng::seed_from_u64(2);

    // Algorithm 8.
    let params = HeavyHittersParams::new(Epsilon::new(eps).unwrap(), Delta::new(0.05).unwrap());
    let mut hh = HeavyHitters::new(params, &mut rng);
    // CountMin and Misra–Gries over per-author citation volume.
    let mut cm = CountMin::for_guarantee(0.005, 0.05, &mut rng);
    let mut mg = MisraGries::new(16);
    let mut table = AuthorTable::new();
    for p in corpus.papers() {
        hh.push(p);
        table.ingest(p);
        for a in &p.authors {
            cm.add(a.0, p.citations);
            mg.add(a.0, p.citations);
        }
    }

    let alg8 = hh.decode();
    let k = expected.len();
    let mut by_volume: Vec<(u64, u64)> = truth
        .per_author
        .keys()
        .map(|a| (a.0, cm.query(a.0)))
        .collect();
    by_volume.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
    let cm_topk: Vec<u64> = by_volume.iter().take(k).map(|&(a, _)| a).collect();

    let alg8_recall = super::e8_e9_heavy::fraction_found(&alg8, &expected);
    let cm_recall = fraction(&expected, |&(a, _)| cm_topk.contains(&a.0));

    let mut t = Table::new(&["method", "recall of true ε-heavy set", "what it surfaces"]);
    t.row(vec![
        "Algorithm 8 (H-index HH)".into(),
        format!("{:.0}%", 100.0 * alg8_recall),
        format!("{:?}", alg8.iter().map(|c| c.author.0).collect::<Vec<_>>()),
    ]);
    t.row(vec![
        "CountMin top-k by citations".into(),
        format!("{:.0}%", 100.0 * cm_recall),
        format!("{cm_topk:?}"),
    ]);
    let mg_topk: Vec<u64> = mg.candidates().iter().take(k).map(|&(a, _)| a).collect();
    let mg_recall = fraction(&expected, |&(a, _)| mg_topk.contains(&a.0));
    t.row(vec![
        "Misra–Gries top-k by citations".into(),
        format!("{:.0}%", 100.0 * mg_recall),
        format!("{mg_topk:?}"),
    ]);
    t.print();
    println!(
        "\n(true ε-heavy authors: {:?}; the volume ranking is hijacked by the\n\
         one-hit wonders (ids 500+, h = 1) — frequency sketches cannot answer\n\
         impact questions, which is why §4 needed new algorithms.)",
        expected.iter().map(|&(a, _)| a.0).collect::<Vec<_>>()
    );
}
