//! Shared workload constructors for the experiments and Criterion
//! benches.

use hindex_stream::generator::{planted_h_corpus, planted_heavy_hitters};
use hindex_stream::{CitationDist, Corpus, CorpusGenerator, ProductivityDist, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Single-author Zipf(`exponent`) citation counts, `n` papers.
#[must_use]
pub fn zipf_counts(n: u64, exponent: f64, seed: u64) -> Vec<u64> {
    CorpusGenerator {
        n_authors: 1,
        productivity: ProductivityDist::Constant(n),
        citations: CitationDist::Zipf { exponent, max: 10_000_000 },
        max_coauthors: 1,
        seed,
    }
    .generate()
    .citation_counts()
}

/// Counts with an exactly planted H-index.
#[must_use]
pub(crate) fn planted_counts(h: u64, n: usize, seed: u64) -> Vec<u64> {
    planted_h_corpus(h, n, seed).citation_counts()
}

/// A heavy-hitter corpus: `heavy` planted author H-indices over
/// `n_noise` light authors.
#[must_use]
pub fn hh_corpus(heavy: &[u64], n_noise: u64, seed: u64) -> Corpus {
    planted_heavy_hitters(heavy, n_noise, 4, 3, seed)
}

/// Applies an order with a seeded RNG (convenience for sweeps).
#[must_use]
pub(crate) fn ordered(values: &[u64], order: StreamOrder, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    order.applied(values, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_common::h_index;

    #[test]
    fn zipf_counts_shape() {
        let v = zipf_counts(10_000, 2.0, 1);
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().all(|&x| x >= 1));
        // Heavy tail: the max should dwarf the median.
        let mut s = v.clone();
        s.sort_unstable();
        assert!(s[s.len() - 1] > 50 * s[s.len() / 2]);
    }

    #[test]
    fn planted_counts_exact() {
        for h in [10u64, 100, 500] {
            assert_eq!(h_index(&planted_counts(h, 1000, 7)), h);
        }
    }

    #[test]
    fn ordered_is_deterministic() {
        let v = zipf_counts(100, 2.0, 2);
        assert_eq!(
            ordered(&v, StreamOrder::Random, 5),
            ordered(&v, StreamOrder::Random, 5)
        );
    }
}
