//! E14: distributed ingestion and realistic temporal workloads.
//!
//! * **(a)** Sharded merge: every linear sketch split across `k`
//!   shards and merged must equal the single-stream run *exactly*
//!   (same randomness ⇒ identical state), at any shard count.
//! * **(b)** The career model (temporal preferential attachment): the
//!   paper's algorithms on an *emergent* power-law stream rather than
//!   an i.i.d. one — including the cash-register sketch on the raw
//!   temporal updates, where citations arrive bursty and rich-get-
//!   richer rather than shuffled.

use crate::table::{f3, Table};
use hindex_common::{AggregateEstimator, CashRegisterEstimator, Delta, Epsilon, Estimate, Mergeable, SpaceUsage, h_index};
use hindex_core::{CashRegisterHIndex, CashRegisterParams, ExponentialHistogram, ShiftingWindow};
use hindex_stream::CareerModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// E14: both parts.
pub(crate) fn e14() {
    e14a();
    e14b();
}

fn e14a() {
    println!("\n## E14a — sharded ingestion: merge(shards) ≡ single stream\n");
    let trace = CareerModel::default().simulate();
    let params = CashRegisterParams::Additive {
        epsilon: Epsilon::new(0.3).unwrap(),
        delta: Delta::new(0.2).unwrap(),
    };
    let mut t = Table::new(&["shards", "single-stream ĥ", "merged ĥ", "identical state"]);
    for &k in &[2usize, 4, 8, 16] {
        let mut rng = StdRng::seed_from_u64(14);
        let proto = CashRegisterHIndex::new(params, &mut rng);
        let mut whole = proto.clone();
        let mut shards: Vec<CashRegisterHIndex> = (0..k).map(|_| proto.clone()).collect();
        for (i, u) in trace.updates.iter().enumerate() {
            whole.ingest(u.paper.0, u.delta);
            shards[i % k].ingest(u.paper.0, u.delta);
        }
        let mut merged = shards.remove(0);
        for s in &shards {
            merged.merge(s);
        }
        let identical = merged.draw_samples() == whole.draw_samples()
            && merged.estimate() == whole.estimate();
        t.row(vec![
            k.to_string(),
            whole.estimate().to_string(),
            merged.estimate().to_string(),
            if identical { "yes".into() } else { "NO".to_string() },
        ]);
    }
    t.print();
    println!("\n(linear sketches: identical randomness + the same multiset of updates ⇒\n bit-identical state, so distribution over shards is exact, not approximate)");
}

fn e14b() {
    println!("\n## E14b — career model: emergent power law, temporal updates\n");
    let mut t = Table::new(&[
        "attach bias", "papers", "citations", "true h*", "alg1 ĥ", "alg2 ĥ", "alg6 ĥ (temporal)",
        "alg6 rel.err",
    ]);
    for &bias in &[0.0, 0.5, 0.9] {
        let trace = CareerModel {
            n_authors: 40,
            rounds: 150,
            publish_prob: 0.35,
            citations_per_round: 400,
            attach_bias: bias,
            seed: 21,
        }
        .simulate();
        let counts = trace.corpus.citation_counts();
        let truth = h_index(&counts);

        let eps = Epsilon::new(0.1).unwrap();
        let mut hist = ExponentialHistogram::new(eps);
        let mut win = ShiftingWindow::new(eps);
        hist.extend_from(counts.iter().copied());
        win.extend_from(counts.iter().copied());

        // Cash-register sketch on the raw temporal stream (bursty,
        // preferential — nothing shuffled).
        let params = CashRegisterParams::Additive {
            epsilon: Epsilon::new(0.2).unwrap(),
            delta: Delta::new(0.1).unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(99);
        let mut cash = CashRegisterHIndex::new(params, &mut rng);
        for u in &trace.updates {
            cash.ingest(u.paper.0, u.delta);
        }
        let cash_est = cash.estimate();
        let _ = cash.space_words();
        t.row(vec![
            format!("{bias:.1}"),
            trace.corpus.len().to_string(),
            trace.updates.len().to_string(),
            truth.to_string(),
            hist.estimate().to_string(),
            win.estimate().to_string(),
            cash_est.to_string(),
            f3((cash_est as f64 - truth as f64).abs() / truth.max(1) as f64),
        ]);
    }
    t.print();
    println!(
        "\n(higher attachment bias → heavier tail and *lower* h* at equal citation\n\
         volume — impact concentrates in fewer papers; all algorithms track the\n\
         truth on the emergent distribution as well as on the postulated ones)"
    );
}
