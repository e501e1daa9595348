//! `hindex gen`: synthetic stream generation.

use crate::args::Parsed;
use hindex_stream::generator::{planted_h_corpus, planted_heavy_hitters};
use hindex_stream::{CitationDist, Corpus, CorpusGenerator, ProductivityDist};
use std::fmt::Write as _;

/// Runs the `gen` subcommand. Output format matches the consuming
/// command: `zipf`/`planted` emit counts (for `agg`), `heavy` emits
/// paper tuples (for `hh`).
///
/// # Errors
///
/// Bad flags.
pub(crate) fn run(parsed: &Parsed) -> Result<String, String> {
    let kind = parsed.str_required("kind")?;
    let n = parsed.u64_or("n", 1000)?;
    let seed = parsed.u64_or("seed", 0)?;
    match kind {
        "zipf" => {
            let exponent = parsed.f64_or("exponent", 2.0)?;
            if exponent <= 1.0 {
                return Err("--exponent must exceed 1".into());
            }
            let corpus = CorpusGenerator {
                n_authors: 1,
                productivity: ProductivityDist::Constant(n),
                citations: CitationDist::Zipf { exponent, max: 10_000_000 },
                max_coauthors: 1,
                seed,
            }
            .generate();
            Ok(render_counts(&corpus))
        }
        "planted" => {
            let h = parsed.u64_or("h", 100)?;
            if h > n {
                return Err(format!("cannot plant h = {h} into n = {n} papers"));
            }
            let corpus = planted_h_corpus(h, n as usize, seed);
            Ok(render_counts(&corpus))
        }
        "heavy" => {
            let h = parsed.u64_or("h", 100)?;
            let corpus = planted_heavy_hitters(&[h, h / 2], n, 4, 3, seed);
            let mut out = String::with_capacity(corpus.len() * 12);
            let _ = writeln!(out, "# paper authors citations (heavy authors: 0 with h={h}, 1 with h={})", h / 2);
            for p in corpus.papers() {
                let authors: Vec<String> = p.authors.iter().map(|a| a.0.to_string()).collect();
                let _ = writeln!(out, "{} {} {}", p.id.0, authors.join(","), p.citations);
            }
            Ok(out)
        }
        other => Err(format!("unknown --kind `{other}` (zipf|planted|heavy)")),
    }
}

fn render_counts(corpus: &Corpus) -> String {
    let mut out = String::with_capacity(corpus.len() * 6);
    for c in corpus.citation_counts() {
        let _ = writeln!(out, "{c}");
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::run_str;
    use hindex_common::h_index;

    #[test]
    fn zipf_emits_n_counts() {
        let out = run_str(&["gen", "--kind", "zipf", "--n", "50"], "").unwrap();
        assert_eq!(out.lines().count(), 50);
        assert!(out.lines().all(|l| l.parse::<u64>().is_ok()));
    }

    #[test]
    fn planted_has_exact_h() {
        let out = run_str(
            &["gen", "--kind", "planted", "--n", "200", "--h", "40"],
            "",
        )
        .unwrap();
        let counts: Vec<u64> = out.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(h_index(&counts), 40);
    }

    #[test]
    fn generated_stream_feeds_back_into_agg() {
        let stream = run_str(
            &["gen", "--kind", "planted", "--n", "500", "--h", "80"],
            "",
        )
        .unwrap();
        let out = run_str(&["agg", "--algorithm", "heap"], &stream).unwrap();
        assert!(out.contains("h-index   : 80"), "{out}");
    }

    #[test]
    fn heavy_stream_feeds_back_into_hh() {
        let stream = run_str(
            &["gen", "--kind", "heavy", "--n", "30", "--h", "60", "--seed", "5"],
            "",
        )
        .unwrap();
        let out = run_str(&["hh", "--eps", "0.2", "--seed", "1"], &stream).unwrap();
        assert!(out.contains("author 0"), "{out}");
    }

    #[test]
    fn requires_kind() {
        assert!(run_str(&["gen"], "").unwrap_err().contains("--kind"));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = run_str(&["gen", "--kind", "zipf", "--n", "30", "--seed", "9"], "").unwrap();
        let b = run_str(&["gen", "--kind", "zipf", "--n", "30", "--seed", "9"], "").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_exponent_rejected() {
        assert!(
            run_str(&["gen", "--kind", "zipf", "--exponent", "0.5"], "")
                .unwrap_err()
                .contains("exceed 1")
        );
    }
}
