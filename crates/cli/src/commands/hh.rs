//! `hindex hh`: heavy hitters in H-index (Algorithm 8).

use crate::args::Parsed;
use crate::io::read_papers;
use hindex_common::{Delta, Epsilon, SpaceUsage};
use hindex_core::{HeavyHitters, HeavyHittersParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io::Read;

/// Runs the `hh` subcommand.
///
/// # Errors
///
/// Bad flags or malformed input.
pub(crate) fn run(parsed: &Parsed, input: &mut dyn Read) -> Result<String, String> {
    let eps = Epsilon::new(parsed.f64_or("eps", 0.2)?).map_err(|e| e.to_string())?;
    let delta = Delta::new(parsed.f64_or("delta", 0.1)?).map_err(|e| e.to_string())?;
    let seed = parsed.u64_or("seed", 0)?;
    let threshold = parsed.u64_opt("threshold")?;
    let papers = read_papers(input)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut hh = HeavyHitters::new(HeavyHittersParams::new(eps, delta), &mut rng);
    for p in &papers {
        hh.push(p);
    }
    let candidates = match threshold {
        Some(t) => hh.decode_with_threshold(t),
        None => hh.decode(),
    };

    let mut out = String::new();
    let _ = writeln!(out, "papers          : {}", papers.len());
    let _ = writeln!(out, "total responses : {}", hh.total_responses());
    let _ = writeln!(out, "impact estimate : {}", hh.total_impact_estimate());
    let _ = writeln!(out, "sketch space    : {} words", hh.space_words());
    let _ = writeln!(
        out,
        "threshold       : {}",
        threshold.map_or_else(|| "auto (ε·impact)".to_string(), |t| t.to_string())
    );
    if candidates.is_empty() {
        let _ = writeln!(out, "heavy hitters   : none");
    } else {
        let _ = writeln!(out, "heavy hitters   :");
        for c in candidates {
            let _ = writeln!(
                out,
                "  author {:<10} ĥ = {:<6} (certified in {} rows)",
                c.author.0, c.h_estimate, c.rows_found
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::run_str;

    /// One dominant author (50 papers, 100 citations each → h = 50)
    /// over light noise.
    fn stream() -> String {
        let mut s = String::new();
        for p in 0..50 {
            s.push_str(&format!("{p} 1 100\n"));
        }
        for p in 50..90 {
            s.push_str(&format!("{p} {} 2\n", p));
        }
        s
    }

    #[test]
    fn finds_the_dominant_author() {
        let out = run_str(&["hh", "--eps", "0.2", "--seed", "3"], &stream()).unwrap();
        assert!(out.contains("author 1"), "{out}");
        assert!(out.contains("total responses : 5080"), "{out}");
    }

    #[test]
    fn explicit_threshold_respected() {
        let out = run_str(
            &["hh", "--eps", "0.2", "--seed", "3", "--threshold", "10000"],
            &stream(),
        )
        .unwrap();
        assert!(out.contains("heavy hitters   : none"), "{out}");
    }

    #[test]
    fn multi_author_lines_accepted() {
        let out = run_str(&["hh"], "0 1,2 40\n1 1,2 40\n").unwrap();
        assert!(out.contains("papers          : 2"), "{out}");
    }

    #[test]
    fn malformed_line_reported() {
        let err = run_str(&["hh"], "0 1\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
