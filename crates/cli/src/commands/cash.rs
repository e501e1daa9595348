//! `hindex cash`: H-index from a cash-register (or turnstile) update
//! stream.

use crate::args::Parsed;
use crate::io::read_updates;
use hindex_baseline::{CashTable, TurnstileTable};
use hindex_common::{CashRegisterEstimator, Delta, Epsilon, Estimate, SpaceUsage};
use hindex_core::{CashRegisterHIndex, CashRegisterParams, TurnstileHIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;

/// Runs the `cash` subcommand. Streams with negative deltas are routed
/// to the turnstile variants automatically.
///
/// # Errors
///
/// Bad flags or malformed input.
pub(crate) fn run(parsed: &Parsed, input: &mut dyn Read) -> Result<String, String> {
    let eps = Epsilon::new(parsed.f64_or("eps", 0.2)?).map_err(|e| e.to_string())?;
    let delta = Delta::new(parsed.f64_or("delta", 0.1)?).map_err(|e| e.to_string())?;
    let algorithm = parsed.str_or("algorithm", "sketch");
    let seed = parsed.u64_or("seed", 0)?;
    let updates = read_updates(input)?;
    let has_negative = updates.iter().any(|&(_, d)| d < 0);
    let mut rng = StdRng::seed_from_u64(seed);

    let (name, estimate, words): (String, u64, usize) = match (algorithm, has_negative) {
        ("sketch", false) => {
            let params = CashRegisterParams::Additive { epsilon: eps, delta };
            let mut est = CashRegisterHIndex::new(params, &mut rng);
            for &(p, d) in &updates {
                est.ingest(p, d as u64);
            }
            (
                format!("ℓ₀-sampling sketch (Alg 6, x = {})", est.num_samplers()),
                est.estimate(),
                est.space_words(),
            )
        }
        ("sketch", true) => {
            let mut est = TurnstileHIndex::new(eps, delta, &mut rng);
            for &(p, d) in &updates {
                est.update(p, d);
            }
            (
                format!("turnstile sketch (x = {})", est.num_samplers()),
                est.estimate(),
                est.space_words(),
            )
        }
        ("exact", false) => {
            let mut est = CashTable::new();
            for &(p, d) in &updates {
                est.ingest(p, d as u64);
            }
            ("exact table".into(), est.estimate(), est.space_words())
        }
        ("exact", true) => {
            let mut est = TurnstileTable::new();
            for &(p, d) in &updates {
                est.ingest(p, d);
            }
            ("exact turnstile table".into(), est.h_index(), est.space_words())
        }
        (other, _) => return Err(format!("unknown --algorithm `{other}` (sketch|exact)")),
    };

    Ok(format!(
        "algorithm : {name}\nupdates   : {}\nmode      : {}\nh-index   : {estimate}\nspace     : {words} words\n",
        updates.len(),
        if has_negative { "turnstile (retractions seen)" } else { "cash register" },
    ))
}

#[cfg(test)]
mod tests {
    use crate::run_str;

    #[test]
    fn exact_cash_register() {
        // Papers 1..5 with counts 5,4,3,2,1 → h = 3.
        let stream = "1 5\n2 4\n3 3\n4 2\n5 1\n";
        let out = run_str(&["cash", "--algorithm", "exact"], stream).unwrap();
        assert!(out.contains("h-index   : 3"), "{out}");
        assert!(out.contains("cash register"));
    }

    #[test]
    fn exact_turnstile_on_negative_deltas() {
        let stream = "1 5\n2 5\n3 5\n1 -5\n";
        let out = run_str(&["cash", "--algorithm", "exact"], stream).unwrap();
        assert!(out.contains("h-index   : 2"), "{out}");
        assert!(out.contains("turnstile"), "{out}");
    }

    #[test]
    fn sketch_runs_and_reports_samplers() {
        let stream: String = (0..30).map(|p| format!("{p} 30\n")).collect();
        let out = run_str(&["cash", "--eps", "0.3", "--delta", "0.2"], &stream).unwrap();
        assert!(out.contains("Alg 6"), "{out}");
        let h: u64 = out
            .lines()
            .find(|l| l.starts_with("h-index"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!((20..=40).contains(&h), "estimate {h}");
    }

    #[test]
    fn turnstile_sketch_on_retractions() {
        let mut stream = String::new();
        for p in 0..20 {
            stream.push_str(&format!("{p} 25\n"));
        }
        stream.push_str("0 -25\n");
        let out = run_str(
            &["cash", "--eps", "0.3", "--delta", "0.2", "--seed", "1"],
            &stream,
        )
        .unwrap();
        assert!(out.contains("turnstile sketch"), "{out}");
    }

    #[test]
    fn unknown_algorithm_rejected() {
        assert!(run_str(&["cash", "--algorithm", "x"], "1 1\n")
            .unwrap_err()
            .contains("unknown --algorithm"));
    }
}
