//! Career-model workload: temporal citation streams with preferential
//! attachment.
//!
//! The plain generators in [`crate::generator`] draw each paper's final
//! citation count i.i.d. from a chosen law. Real feedback does not
//! arrive that way: papers accumulate citations *over time*, rich get
//! richer (preferential attachment), and authors publish across a
//! career. This module simulates that process and emits the resulting
//! **temporally ordered cash-register stream**, the closest synthetic
//! stand-in for a production citation/retweet firehose:
//!
//! * time advances in rounds; each round some authors publish new
//!   papers and a batch of citations lands;
//! * each citation picks its target by preferential attachment with
//!   probability `attach_bias`, uniformly otherwise — the classic
//!   mixture that produces the power-law counts the i.i.d. generators
//!   postulate;
//! * the stream of [`CashUpdate`]s is exactly what the simulation
//!   produced, in order — no post-hoc shuffling needed.

use crate::cash::CashUpdate;
use crate::corpus::Corpus;
use crate::model::{AuthorId, Paper, PaperId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the career simulation.
#[derive(Debug, Clone, Copy)]
pub struct CareerModel {
    /// Number of authors publishing.
    pub n_authors: u64,
    /// Simulation rounds (e.g. months).
    pub rounds: u32,
    /// Probability an author publishes one paper in a round.
    pub publish_prob: f64,
    /// Citations landing per round (across the whole corpus).
    pub citations_per_round: u32,
    /// Probability a citation targets by preferential attachment (the
    /// rest pick a uniformly random existing paper).
    pub attach_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CareerModel {
    fn default() -> Self {
        Self {
            n_authors: 50,
            rounds: 120,
            publish_prob: 0.3,
            citations_per_round: 200,
            attach_bias: 0.7,
            seed: 0,
        }
    }
}

/// The simulation output: the final corpus and the temporal update
/// stream that produced it.
#[derive(Debug, Clone)]
pub struct CareerTrace {
    /// Final aggregated corpus (papers with their total citations).
    pub corpus: Corpus,
    /// The cash-register stream, in simulation order.
    pub updates: Vec<CashUpdate>,
}

impl CareerModel {
    /// Runs the simulation.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range probabilities or an empty author set.
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        reason = "the model's own counters: `pick < total_citations` is the sum of the counts walked, `target` indexes `papers` (drawn below its length), and each citation adds one"
    )]
    pub fn simulate(&self) -> CareerTrace {
        assert!(self.n_authors >= 1, "need at least one author");
        assert!(
            (0.0..=1.0).contains(&self.publish_prob),
            "publish_prob in [0,1]"
        );
        assert!((0.0..=1.0).contains(&self.attach_bias), "attach_bias in [0,1]");
        let mut rng = StdRng::seed_from_u64(self.seed);
        // papers[i] = (author, count)
        let mut papers: Vec<(u64, u64)> = Vec::new();
        let mut updates: Vec<CashUpdate> = Vec::new();
        let mut total_citations: u64 = 0;
        for _round in 0..self.rounds {
            // Publications.
            for author in 0..self.n_authors {
                if rng.random::<f64>() < self.publish_prob {
                    papers.push((author, 0));
                }
            }
            if papers.is_empty() {
                continue;
            }
            // Citations.
            for _ in 0..self.citations_per_round {
                let target = if total_citations > 0 && rng.random::<f64>() < self.attach_bias {
                    // Preferential attachment: pick a *citation* uniformly
                    // and cite its paper (probability ∝ current count).
                    // Implemented by inverse sampling over the counts.
                    let mut pick = rng.random_range(0..total_citations);
                    let mut idx = 0usize;
                    for (i, &(_, c)) in papers.iter().enumerate() {
                        if pick < c {
                            idx = i;
                            break;
                        }
                        pick -= c;
                    }
                    idx
                } else {
                    rng.random_range(0..papers.len() as u64) as usize
                };
                papers[target].1 += 1;
                total_citations += 1;
                updates.push(CashUpdate {
                    paper: PaperId(target as u64),
                    authors: vec![AuthorId(papers[target].0)],
                    delta: 1,
                });
            }
        }
        let corpus = Corpus::from_papers(
            papers
                .iter()
                .enumerate()
                .map(|(i, &(author, count))| Paper::solo(i as u64, author, count))
                .collect(),
        );
        CareerTrace { corpus, updates }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> CareerModel {
        CareerModel {
            n_authors: 10,
            rounds: 50,
            publish_prob: 0.4,
            citations_per_round: 100,
            attach_bias: 0.8,
            seed: 3,
        }
    }

    #[test]
    fn updates_reaggregate_to_corpus() {
        let trace = small().simulate();
        let mut sums: HashMap<u64, u64> = HashMap::new();
        for u in &trace.updates {
            *sums.entry(u.paper.0).or_default() += u.delta;
        }
        for p in trace.corpus.papers() {
            assert_eq!(
                sums.get(&p.id.0).copied().unwrap_or(0),
                p.citations,
                "paper {}",
                p.id
            );
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = small().simulate();
        let b = small().simulate();
        assert_eq!(a.corpus.papers(), b.corpus.papers());
        assert_eq!(a.updates.len(), b.updates.len());
    }

    #[test]
    fn preferential_attachment_creates_heavy_tail() {
        // With strong attachment bias, the top paper should dwarf the
        // median — the emergent power law.
        let trace = CareerModel {
            attach_bias: 0.9,
            rounds: 200,
            ..small()
        }
        .simulate();
        let mut counts = trace.corpus.citation_counts();
        counts.sort_unstable();
        let max = counts[counts.len() - 1];
        let median = counts[counts.len() / 2];
        assert!(
            max > 10 * median.max(1),
            "no heavy tail: max {max}, median {median}"
        );
    }

    #[test]
    fn no_attachment_is_roughly_uniform() {
        let trace = CareerModel {
            attach_bias: 0.0,
            rounds: 100,
            citations_per_round: 500,
            ..small()
        }
        .simulate();
        let counts = trace.corpus.citation_counts();
        let max = counts.iter().copied().max().unwrap();
        let mean = counts.iter().sum::<u64>() / counts.len() as u64;
        assert!(max < 10 * mean.max(1), "uniform regime too skewed: {max} vs {mean}");
    }

    #[test]
    fn updates_are_temporally_usable_by_cash_sketches() {
        let trace = small().simulate();
        let mut totals = HashMap::<u64, u64>::new();
        for u in &trace.updates {
            *totals.entry(u.paper.0).or_default() += u.delta;
        }
        let values: Vec<u64> = totals.into_values().collect();
        let h = hindex_common::h_index;
        assert_eq!(h(&values), h(&trace.corpus.citation_counts()));
    }

    #[test]
    #[should_panic(expected = "publish_prob in [0,1]")]
    fn bad_probability_rejected() {
        let _ = CareerModel { publish_prob: 1.5, ..small() }.simulate();
    }
}
