//! `hindex agg`: H-index of an aggregate stream.

use crate::args::Parsed;
use crate::io::read_counts;
use hindex_baseline::FullStore;
use hindex_common::{
    AggregateEstimator, Delta, Epsilon, Estimate, IncrementalHIndex, SpaceUsage,
};
use hindex_core::{
    ExponentialHistogram, RandomOrderEstimator, RandomOrderParams, ShiftingWindow,
    SlidingHIndex, StreamingAlphaIndex, StreamingGIndex,
};
use std::io::Read;

/// Runs the `agg` subcommand.
///
/// # Errors
///
/// Bad flags or malformed input.
pub(crate) fn run(parsed: &Parsed, input: &mut dyn Read) -> Result<String, String> {
    let eps_val = parsed.f64_or("eps", 0.1)?;
    let algorithm = parsed.str_or("algorithm", "window");
    let counts = read_counts(input)?;

    let (name, estimate, words): (&str, u64, usize) = match algorithm {
        "window" => {
            let eps = Epsilon::new(eps_val).map_err(|e| e.to_string())?;
            let mut est = ShiftingWindow::new(eps);
            est.extend_from(counts.iter().copied());
            ("shifting window (Alg 2)", est.estimate(), est.space_words())
        }
        "histogram" => {
            let eps = Epsilon::new(eps_val).map_err(|e| e.to_string())?;
            let mut est = ExponentialHistogram::new(eps);
            est.extend_from(counts.iter().copied());
            ("exponential histogram (Alg 1)", est.estimate(), est.space_words())
        }
        "random" => {
            let eps = Epsilon::new(eps_val).map_err(|e| e.to_string())?;
            let delta = Delta::new(parsed.f64_or("delta", 0.1)?).map_err(|e| e.to_string())?;
            let n = parsed.u64_or("n", counts.len() as u64)?;
            if n == 0 {
                return Err("`--algorithm random` needs a non-empty stream or --n".into());
            }
            let mut est = RandomOrderEstimator::new(RandomOrderParams::new(eps, delta, n));
            est.extend_from(counts.iter().copied());
            ("random-order (Alg 3/4)", est.estimate(), est.space_words())
        }
        "heap" => {
            let mut est = IncrementalHIndex::new();
            est.extend_from(counts.iter().copied());
            ("exact heap", est.estimate(), est.space_words())
        }
        "store" => {
            let mut est = FullStore::new();
            est.extend_from(counts.iter().copied());
            ("exact store-everything", est.estimate(), est.space_words())
        }
        "g" => {
            let eps = Epsilon::new(eps_val).map_err(|e| e.to_string())?;
            let mut est = StreamingGIndex::new(eps);
            est.extend_from(counts.iter().copied());
            ("streaming g-index (§5)", est.estimate(), est.space_words())
        }
        "alpha" => {
            let eps = Epsilon::new(eps_val).map_err(|e| e.to_string())?;
            let alpha = parsed.f64_or("alpha", 1.0)?;
            if !(alpha.is_finite() && alpha > 0.0) {
                return Err("--alpha must be positive".into());
            }
            let mut est = StreamingAlphaIndex::new(eps, alpha);
            est.extend_from(counts.iter().copied());
            ("streaming α-index (§5)", est.estimate(), est.space_words())
        }
        "sliding" => {
            let eps = Epsilon::new(eps_val).map_err(|e| e.to_string())?;
            let window = parsed.u64_or("window", 1000)?;
            if window == 0 {
                return Err("--window must be positive".into());
            }
            let mut est = SlidingHIndex::new(eps, window, 0.05);
            est.extend_from(counts.iter().copied());
            (
                "sliding-window H-index (§5)",
                est.estimate(),
                est.space_words(),
            )
        }
        other => {
            return Err(format!(
                "unknown --algorithm `{other}` (window|histogram|random|heap|store|g|alpha|sliding)"
            ))
        }
    };

    Ok(format!(
        "algorithm : {name}\nelements  : {}\nh-index   : {estimate}\nspace     : {words} words\n",
        counts.len()
    ))
}

#[cfg(test)]
mod tests {
    use crate::run_str;

    const STREAM: &str = "10\n8\n5\n4\n3\n"; // h = 4

    #[test]
    fn heap_is_exact() {
        let out = run_str(&["agg", "--algorithm", "heap"], STREAM).unwrap();
        assert!(out.contains("h-index   : 4"), "{out}");
        assert!(out.contains("elements  : 5"));
    }

    #[test]
    fn store_is_exact() {
        let out = run_str(&["agg", "--algorithm", "store"], STREAM).unwrap();
        assert!(out.contains("h-index   : 4"), "{out}");
    }

    #[test]
    fn window_within_guarantee() {
        let out = run_str(&["agg", "--eps", "0.1"], STREAM).unwrap();
        let h: u64 = out
            .lines()
            .find(|l| l.starts_with("h-index"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!((4..=4).contains(&h) || h == 3, "estimate {h}");
    }

    #[test]
    fn histogram_reports_space() {
        let out = run_str(&["agg", "--algorithm", "histogram"], STREAM).unwrap();
        assert!(out.contains("words"), "{out}");
    }

    #[test]
    fn random_algorithm_runs() {
        let big: String = (0..1000).map(|i| format!("{}\n", i % 50)).collect();
        let out = run_str(&["agg", "--algorithm", "random", "--eps", "0.2"], &big).unwrap();
        assert!(out.contains("random-order"), "{out}");
    }

    #[test]
    fn unknown_algorithm_rejected() {
        let err = run_str(&["agg", "--algorithm", "magic"], STREAM).unwrap_err();
        assert!(err.contains("unknown --algorithm"));
    }

    #[test]
    fn bad_eps_rejected() {
        let err = run_str(&["agg", "--eps", "2.0"], STREAM).unwrap_err();
        assert!(err.contains("epsilon"), "{err}");
    }

    #[test]
    fn malformed_input_rejected() {
        let err = run_str(&["agg"], "1\ntwo\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn empty_stream_is_zero() {
        let out = run_str(&["agg", "--algorithm", "heap"], "").unwrap();
        assert!(out.contains("h-index   : 0"));
    }

    #[test]
    fn g_index_variant() {
        // counts 10,5,3,1 → g = 4 (prefix sums clear every g²).
        let out = run_str(&["agg", "--algorithm", "g", "--eps", "0.05"], "10\n5\n3\n1\n").unwrap();
        assert!(out.contains("g-index"), "{out}");
        assert!(out.contains("h-index   : 4") || out.contains("h-index   : 3"), "{out}");
    }

    #[test]
    fn alpha_variant() {
        let out = run_str(
            &["agg", "--algorithm", "alpha", "--alpha", "5.0", "--eps", "0.05"],
            "10\n10\n10\n10\n",
        )
        .unwrap();
        assert!(out.contains("α-index"), "{out}");
        assert!(out.contains("h-index   : 2"), "{out}");
    }

    #[test]
    fn sliding_variant_expires() {
        // 50 strong papers followed by 100 junk; window 50 → h = 0.
        let mut stream = String::new();
        for _ in 0..50 {
            stream.push_str("100\n");
        }
        for _ in 0..100 {
            stream.push_str("0\n");
        }
        let out = run_str(
            &["agg", "--algorithm", "sliding", "--window", "50"],
            &stream,
        )
        .unwrap();
        assert!(out.contains("h-index   : 0"), "{out}");
    }

    #[test]
    fn bad_alpha_rejected() {
        let err = run_str(
            &["agg", "--algorithm", "alpha", "--alpha", "-1"],
            "1\n",
        )
        .unwrap_err();
        assert!(err.contains("--alpha"), "{err}");
    }
}
