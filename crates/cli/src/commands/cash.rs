//! `hindex cash`: H-index from a cash-register (or turnstile) update
//! stream.

use crate::args::Parsed;
use crate::io::read_updates;
use hindex_baseline::{CashTable, TurnstileTable};
use hindex_common::{CashRegisterEstimator, Delta, Epsilon, Estimate, SpaceUsage};
use hindex_core::{CashRegisterHIndex, CashRegisterParams, TurnstileHIndex};
use hindex_engine::EngineConfig;
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
    let len = updates.len();
    let has_negative = updates.iter().any(|&(_, d)| d < 0);
    let mut rng = StdRng::seed_from_u64(seed);
    // The sketches take the stream in the engine's default batches:
    // their batch paths are state-identical to the scalar loop.
    let batch = EngineConfig::default().batch_size;

    let (name, estimate, words): (String, u64, usize) = match (algorithm, has_negative) {
        ("sketch", false) => {
            let params = CashRegisterParams::Additive { epsilon: eps, delta };
            let mut est = CashRegisterHIndex::new(params, &mut rng);
            let updates: Vec<(u64, u64)> = updates
                .into_iter()
                .map(|(p, d)| (p, d.unsigned_abs()))
                .collect();
            for chunk in updates.chunks(batch) {
                est.ingest_batch(chunk);
            }
            (
                format!("ℓ₀-sampling sketch (Alg 6, x = {})", est.num_samplers()),
                est.estimate(),
                est.space_words(),
            )
        }
        ("sketch", true) => {
            let mut est = TurnstileHIndex::new(eps, delta, &mut rng);
            for chunk in updates.chunks(batch) {
                est.update_batch(chunk);
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
        "algorithm : {name}\nupdates   : {len}\nmode      : {}\nh-index   : {estimate}\nspace     : {words} words\n",
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
    fn batched_sketches_print_the_scalar_loop_estimate() {
        use hindex_common::{CashRegisterEstimator, Delta, Epsilon, Estimate};
        use hindex_core::{CashRegisterHIndex, CashRegisterParams, TurnstileHIndex};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (epsilon, delta) = (Epsilon::new(0.3).unwrap(), Delta::new(0.2).unwrap());
        let argv = ["cash", "--eps", "0.3", "--delta", "0.2", "--seed", "9"];
        let h_line = |out: &str| {
            out.lines().find(|l| l.starts_with("h-index")).unwrap().to_string()
        };
        // Skewed and longer than one 1024-update batch; the turnstile
        // stream also retracts some of it.
        let updates: Vec<(u64, i64)> =
            (0..2_500u64).map(|k| ((k * k) % 89, 1 + (k % 3) as i64)).collect();
        let retractions: Vec<(u64, i64)> = (0..300u64).map(|k| ((k * 7) % 89, -1)).collect();
        let text = |updates: &[(u64, i64)]| -> String {
            updates.iter().map(|(p, d)| format!("{p} {d}\n")).collect()
        };

        let mut cash = CashRegisterHIndex::new(
            CashRegisterParams::Additive { epsilon, delta },
            &mut StdRng::seed_from_u64(9),
        );
        for &(p, d) in &updates {
            cash.ingest(p, d.unsigned_abs());
        }
        let out = run_str(&argv, &text(&updates)).unwrap();
        assert!(out.contains("cash register"), "{out}");
        assert_eq!(h_line(&out), format!("h-index   : {}", cash.estimate()));

        let turnstile_stream: Vec<(u64, i64)> =
            updates.iter().chain(&retractions).copied().collect();
        let mut turnstile = TurnstileHIndex::new(epsilon, delta, &mut StdRng::seed_from_u64(9));
        for &(p, d) in &turnstile_stream {
            turnstile.update(p, d);
        }
        let out = run_str(&argv, &text(&turnstile_stream)).unwrap();
        assert!(out.contains("turnstile sketch"), "{out}");
        assert_eq!(h_line(&out), format!("h-index   : {}", turnstile.estimate()));
    }

    #[test]
    fn unknown_algorithm_rejected() {
        assert!(run_str(&["cash", "--algorithm", "x"], "1 1\n")
            .unwrap_err()
            .contains("unknown --algorithm"));
    }
}
