//! E11: the space crossover between the exact online baseline and the
//! paper's sketches.
//!
//! The exact min-heap tracker pays `h* + O(1)` words — unbeatable when
//! impact is small, hopeless when it is large. This experiment locates
//! the crossover against Algorithms 1 and 2.

use crate::table::Table;
use crate::workloads::planted_counts;
use hindex_common::{AggregateEstimator, Epsilon, IncrementalHIndex, SpaceUsage};
use hindex_core::{ExponentialHistogram, ShiftingWindow};

/// E11: words used by exact-vs-sketch as the planted h* grows.
pub(crate) fn e11() {
    println!("\n## E11 — space crossover: exact O(h*) heap vs the sketches (ε = 0.1)\n");
    let eps = Epsilon::new(0.1).unwrap();
    let mut t = Table::new(&[
        "h*", "n", "exact heap words", "alg1 words", "alg2 words", "winner",
    ]);
    for &h in &[10u64, 50, 100, 500, 1_000, 10_000, 100_000] {
        let n = (2 * h).max(1_000) as usize;
        let values = planted_counts(h, n, 3);
        let mut heap = IncrementalHIndex::new();
        let mut hist = ExponentialHistogram::new(eps);
        let mut win = ShiftingWindow::new(eps);
        for &v in &values {
            heap.insert(v);
            hist.ingest(v);
            win.ingest(v);
        }
        let (hw, h1, h2) = (heap.space_words(), hist.space_words(), win.space_words());
        let winner = if hw <= h1.min(h2) {
            "exact heap"
        } else if h2 <= h1 {
            "alg2 window"
        } else {
            "alg1 histogram"
        };
        t.row(vec![
            h.to_string(),
            n.to_string(),
            hw.to_string(),
            h1.to_string(),
            h2.to_string(),
            winner.into(),
        ]);
    }
    t.print();
    println!(
        "\n(the exact heap wins below h* ≈ ε⁻¹ log ε⁻¹ ≈ a few hundred; beyond\n\
         the crossover the sketches are arbitrarily smaller — the paper's point.)"
    );
}
