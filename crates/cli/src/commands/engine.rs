//! `hindex engine`: sharded parallel ingestion of a cash-register
//! stream, optionally supervised with deterministic fault injection.
//!
//! The fail-hard [`ShardedEngine`] and the self-healing
//! [`SupervisedEngine`] are two names of one engine type, [`Shards`],
//! so **one driver** runs both; they differ only in construction.

// Wall time here is the elapsed figure printed for the operator; it never
// reaches estimator state (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::args::Parsed;
use crate::io::read_cash_register;
use hindex_baseline::CashTable;
use hindex_common::{
    ApproxKind, Delta, Engine, Epsilon, Estimate, Guarantee, Mergeable, SpaceUsage,
};
use hindex_core::{CashRegisterHIndex, CashRegisterParams};
use hindex_engine::{
    BatchIngest, EngineConfig, FaultPlan, QueryReport, ShardedEngine, Shards, SupervisedEngine,
    SupervisorConfig,
};
use hindex_obs::EngineObserver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;
use std::sync::Arc;
use std::time::Instant;

/// How long the driver waits for a forced publish to complete before
/// falling back to a synchronous merge. Generous: workers only have to
/// clone and send their state.
const PUBLISH_WAIT_MS: u64 = 5_000;

/// Runs the `engine` subcommand: partitions the update stream across
/// worker shards, then answers from the merged shard states. With
/// `--obs on`, an [`EngineObserver`] is attached and its metrics
/// snapshot is appended to the report. With `--faults SPEC` (or
/// `--supervise on`), the run goes through the self-healing
/// [`SupervisedEngine`]: recovery cuts, bounded replay, and restart
/// from the retained base on worker death — the printed `digest` is
/// bit-comparable with a fault-free run's. With `--publish-interval N`
/// the engine carries a read plane and the report is answered from
/// its final published view (`--fresh on` forces the synchronous
/// merge instead); either way the digest is bit-identical.
///
/// # Errors
///
/// Bad flags, malformed input, a malformed `--faults` spec, or
/// negative deltas (the engine ingests cash-register streams; use
/// `hindex cash` for turnstile data).
pub(crate) fn run(parsed: &Parsed, input: &mut dyn Read) -> Result<String, String> {
    let eps = Epsilon::new(parsed.f64_or("eps", 0.2)?).map_err(|e| e.to_string())?;
    let delta = Delta::new(parsed.f64_or("delta", 0.1)?).map_err(|e| e.to_string())?;
    let algorithm = parsed.str_or("algorithm", "sketch");
    let seed = parsed.u64_or("seed", 0)?;
    let shards = parsed.usize_or("shards", 4)?;
    let batch = parsed.usize_or("batch", 1024)?;
    let publish = parsed.u64_or("publish-interval", 0)?;
    let fresh = matches!(parsed.str_or("fresh", "off"), "on" | "true" | "1");
    let observe = matches!(parsed.str_or("obs", "off"), "on" | "true" | "1");
    let faults_spec = parsed.str_or("faults", "").to_string();
    let supervise = !faults_spec.is_empty()
        || matches!(parsed.str_or("supervise", "off"), "on" | "true" | "1");
    let updates = read_cash_register(input, "engine")?;
    let mut builder = EngineConfig::builder().shards(shards).batch(batch);
    if publish > 0 {
        builder = builder.publish_interval(publish);
    }
    // The supervised path always carries an observer: restart and
    // loss accounting come from its counters. Metrics are only
    // *printed* with `--obs on`.
    let observer = (observe || supervise).then(|| Arc::new(EngineObserver::new(shards)));
    if let Some(o) = &observer {
        builder = builder.observer(Arc::clone(o));
    }
    let config = builder.build().map_err(|e| e.to_string())?;

    let policy = if supervise {
        let sup = SupervisorConfig {
            checkpoint_interval: parsed.u64_or("ckpt-interval", 4)?,
            max_replay_words: parsed.usize_or("replay-words", 1 << 20)?,
            max_restarts: u32::try_from(parsed.u64_or("max-restarts", 8)?)
                .map_err(|_| "--max-restarts out of range".to_string())?,
            backoff_ms: 0,
        };
        let plan = if faults_spec.is_empty() {
            FaultPlan::none()
        } else {
            FaultPlan::parse(&faults_spec, shards, updates.len() as u64)?
        };
        let fault_line = if plan.is_empty() {
            "none".to_string()
        } else {
            match plan.seed {
                // Echo the seed so a `rand=N@now` run can be replayed.
                Some(s) => format!("{} planned (seed {s})", plan.faults.len()),
                None => format!("{} planned ({faults_spec})", plan.faults.len()),
            }
        };
        suppress_injected_panics();
        Some((sup, plan, fault_line))
    } else {
        None
    };

    let suffix = if supervise { ", supervised" } else { "" };
    let (name, outcome) = match algorithm {
        "sketch" => {
            let params = CashRegisterParams::Additive { epsilon: eps, delta };
            let contract = Guarantee::randomized(ApproxKind::Additive, eps, delta);
            let prototype = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(seed));
            launch(config, policy.as_ref(), prototype, &updates, Some(contract), fresh, |m| {
                format!("sharded ℓ₀-sampling sketch (Alg 6, x = {}){suffix}", m.num_samplers())
            })?
        }
        "exact" => launch(config, policy.as_ref(), CashTable::new(), &updates, None, fresh, |_| {
            format!("sharded exact table{suffix}")
        })?,
        other => return Err(format!("unknown --algorithm `{other}` (sketch|exact)")),
    };

    let secs = outcome.elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        format!("{:.0}", updates.len() as f64 / secs)
    } else {
        "inf".into()
    };
    let metrics = observer.as_ref().map(|o| o.snapshot());
    let report = &outcome.report;
    let mut out = format!("algorithm : {name}\nupdates   : {}\n", updates.len());
    out.push_str(&format!("shards    : {shards} (batch {batch})\n"));
    if let Some((_, _, fault_line)) = &policy {
        let (restarts, replayed) = metrics
            .as_ref()
            .map_or((0, 0), |m| (m.restarts, m.replayed_batches));
        out.push_str(&format!(
            "faults    : {fault_line}\nrestarts  : {restarts} (replayed {replayed} batches)\n"
        ));
    }
    if let Some(epoch) = report.epoch {
        out.push_str(&format!(
            "published : epoch {epoch} (staleness {})\n",
            report.staleness
        ));
    }
    out.push_str(&format!(
        "h-index   : {}\ndigest    : {:#018x}\n",
        report.estimate, outcome.digest
    ));
    if outcome.scratch > 0 || policy.is_some() {
        out.push_str(&format!(
            "space     : {} words (+ {} recovery scratch)\n",
            report.space_words, outcome.scratch
        ));
    } else {
        out.push_str(&format!(
            "space     : {} words (whole pipeline)\n",
            report.space_words
        ));
    }
    out.push_str(&format!("contract  : {}\n", contract_line(report)));
    if outcome.dead.is_empty() {
        out.push_str("degraded  : no\n");
    } else {
        let lost = metrics.as_ref().map_or(0, |m| m.items_lost);
        out.push_str(&format!(
            "degraded  : yes, dead shards {:?} ({lost} updates lost)\n",
            outcome.dead
        ));
    }
    out.push_str(&format!("ingest    : {rate} updates/s\n"));
    if observe {
        if let Some(m) = &metrics {
            out.push('\n');
            out.push_str(&m.render_text());
        }
    }
    Ok(out)
}

/// Everything the report printer needs from a finished run, whichever
/// policy (and answer path) produced it.
struct Outcome {
    /// The typed query report; `epoch`/`staleness` are set when the
    /// answer came from the read plane.
    report: QueryReport,
    /// Frame digest of the answering state: the final published view
    /// when the read plane answered, the synchronous merge otherwise.
    digest: u64,
    /// Recovery scratch words (replay logs + retained bases) at the
    /// end of the stream.
    scratch: usize,
    /// Shards whose updates are lost for good.
    dead: Vec<usize>,
    /// Ingest wall time (stream start to report).
    elapsed: std::time::Duration,
}

/// Constructs the requested engine around `prototype` and hands it to
/// the driver; `name` renders the algorithm line from the final merged
/// estimator. The only code here that tells the two names apart.
fn launch<E>(
    config: EngineConfig,
    policy: Option<&(SupervisorConfig, FaultPlan, String)>,
    prototype: E,
    updates: &[(u64, u64)],
    contract: Option<Guarantee>,
    fresh: bool,
    name: impl FnOnce(&E) -> String,
) -> Result<(String, Outcome), String>
where
    E: BatchIngest<(u64, u64)>
        + Mergeable
        + Estimate
        + SpaceUsage
        + Clone
        + Send
        + Sync
        + 'static,
{
    let (merged, outcome) = match policy {
        Some((sup, plan, _)) => drive(
            SupervisedEngine::with_faults(config, sup.clone(), plan.clone(), prototype)
                .map_err(|e| e.to_string())?,
            updates,
            contract,
            fresh,
        )?,
        None => drive(ShardedEngine::new(config, prototype), updates, contract, fresh)?,
    };
    Ok((name(&merged), outcome))
}

/// The one driver: ingest the whole stream, answer (from the read
/// plane's final published view when one exists and `fresh` is off,
/// from a synchronous merge otherwise), then retire the engine through
/// the lossy path so dead shards are reported, not fatal.
fn drive<E, const HEAL: bool>(
    mut engine: Shards<E, (u64, u64), HEAL>,
    updates: &[(u64, u64)],
    contract: Option<Guarantee>,
    fresh: bool,
) -> Result<(E, Outcome), String>
where
    E: BatchIngest<(u64, u64)>
        + Mergeable
        + Estimate
        + SpaceUsage
        + Clone
        + Send
        + Sync
        + 'static,
{
    let start = Instant::now();
    engine.ingest_batch(updates);
    engine.flush();

    // Answer from the read plane when possible: force a publish at the
    // final offset and wait for the workers to complete the epoch. Any
    // failure (no plane, dead shard, timeout) falls back to the
    // synchronous merge — same bits, just not exercising the plane.
    let mut plane_answer = None;
    if !fresh {
        if let (Some(handle), Some(epoch)) = (engine.read_handle(), engine.publish_now()) {
            if handle.wait_for_epoch(epoch, PUBLISH_WAIT_MS) {
                if let (Some(view), Some(report)) = (handle.query(), handle.report(contract)) {
                    plane_answer = Some((report, view.estimator().frame_digest()));
                }
            }
        }
    }
    let (report, plane_digest) = match plane_answer {
        Some((report, digest)) => (report, Some(digest)),
        None => (engine.report(contract).map_err(|e| e.to_string())?, None),
    };
    let elapsed = start.elapsed();
    let scratch = engine.scratch_words();
    let degraded = engine.finish_degraded().map_err(|e| e.to_string())?;
    let digest = plane_digest.unwrap_or_else(|| degraded.estimator.frame_digest());
    Ok((
        degraded.estimator,
        Outcome { report, digest, scratch, dead: degraded.dead_shards, elapsed },
    ))
}

/// Injected kills travel the genuine panic path; without this the
/// default hook would spray expected backtraces over stderr. Real
/// (non-injected) panics still print normally.
fn suppress_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("injected fault:"));
        if !injected {
            default_hook(info);
        }
    }));
}

/// Human-readable form of the report's approximation contract.
fn contract_line(report: &QueryReport) -> String {
    match &report.approx_contract {
        None => "exact".to_string(),
        Some(g) => {
            let kind = match g.kind {
                ApproxKind::Multiplicative => "multiplicative",
                ApproxKind::Additive => "additive",
            };
            match g.delta {
                Some(d) => format!("{kind} ε={} δ={}", g.epsilon.get(), d.get()),
                None => format!("{kind} ε={} (deterministic)", g.epsilon.get()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::run_str;

    fn digest_line(out: &str) -> &str {
        out.lines().find(|l| l.starts_with("digest")).unwrap()
    }

    #[test]
    fn exact_engine_matches_serial_answer() {
        // Papers 1..=5 with counts 5,4,3,2,1 → h = 3, on any shard count.
        let stream = "1 5\n2 4\n3 3\n4 2\n5 1\n";
        for shards in ["1", "2", "8"] {
            let out = run_str(
                &["engine", "--algorithm", "exact", "--shards", shards],
                stream,
            )
            .unwrap();
            assert!(out.contains("h-index   : 3"), "shards {shards}: {out}");
            assert!(out.contains("contract  : exact"), "{out}");
            assert!(out.contains("degraded  : no"), "{out}");
        }
    }

    #[test]
    fn sketch_engine_runs() {
        let stream: String = (0..30).map(|p| format!("{p} 30\n")).collect();
        let out = run_str(
            &["engine", "--eps", "0.3", "--delta", "0.2", "--shards", "2", "--batch", "8"],
            &stream,
        )
        .unwrap();
        assert!(out.contains("Alg 6"), "{out}");
        assert!(out.contains("shards    : 2"), "{out}");
        assert!(out.contains("contract  : additive ε=0.3 δ=0.2"), "{out}");
        let h: u64 = out
            .lines()
            .find(|l| l.starts_with("h-index"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        assert!((20..=40).contains(&h), "estimate {h}");
    }

    #[test]
    fn zero_shards_rejected_by_builder() {
        let err = run_str(&["engine", "--shards", "0"], "1 1\n").unwrap_err();
        assert!(err.contains("shards"), "{err}");
    }

    #[test]
    fn observed_engine_appends_metrics() {
        let stream: String = (0..200u64).map(|k| format!("{} 1\n", k % 40)).collect();
        let out = run_str(
            &["engine", "--algorithm", "exact", "--shards", "2", "--batch", "16", "--obs", "on"],
            &stream,
        )
        .unwrap();
        assert!(out.contains("h-index   : "), "{out}");
        assert!(out.contains("hindex_engine_items_total 200"), "{out}");
        assert!(out.contains("hindex_engine_shard_items_total"), "{out}");
    }

    #[test]
    fn chaos_digest_matches_clean_run() {
        // The chaos contract end to end: a kill-sweep over every shard
        // must answer bit-identically to an untouched run.
        let stream: String = (0..600u64).map(|k| format!("{} 1\n", k % 40)).collect();
        for algorithm in ["exact", "sketch"] {
            let base = &[
                "engine", "--algorithm", algorithm, "--seed", "5",
                "--shards", "3", "--batch", "16",
            ];
            let clean = run_str(base, &stream).unwrap();
            let mut chaotic: Vec<&str> = base.to_vec();
            chaotic.extend_from_slice(&["--faults", "sweep@50=100"]);
            let out = run_str(&chaotic, &stream).unwrap();
            assert!(out.contains("supervised"), "{out}");
            assert!(out.contains("degraded  : no"), "{out}");
            let restarts: u64 = out
                .lines()
                .find(|l| l.starts_with("restarts"))
                .and_then(|l| l.split(&[':', '('][..]).nth(1))
                .and_then(|v| v.trim().parse().ok())
                .unwrap();
            assert!(restarts >= 3, "every shard should restart once: {out}");
            assert_eq!(digest_line(&clean), digest_line(&out), "{algorithm}");
        }
    }

    #[test]
    fn supervised_without_faults_matches_plain_digest() {
        let stream: String = (0..300u64).map(|k| format!("{} 2\n", k % 25)).collect();
        let base = &["engine", "--algorithm", "exact", "--shards", "2"];
        let plain = run_str(base, &stream).unwrap();
        let mut supervised: Vec<&str> = base.to_vec();
        supervised.extend_from_slice(&["--supervise", "on"]);
        let sup = run_str(&supervised, &stream).unwrap();
        assert!(sup.contains("faults    : none"), "{sup}");
        assert!(sup.contains("restarts  : 0"), "{sup}");
        assert_eq!(digest_line(&plain), digest_line(&sup));
    }

    #[test]
    fn published_answer_is_bit_identical_to_fresh_merge() {
        // The read-plane contract at the CLI boundary: answering from
        // the final published view, from a forced synchronous merge,
        // and from an engine with no read plane at all must all print
        // the same digest.
        let stream: String = (0..500u64).map(|k| format!("{} 3\n", k % 35)).collect();
        for algorithm in ["exact", "sketch"] {
            let base = &[
                "engine", "--algorithm", algorithm, "--shards", "3", "--batch", "16",
            ];
            let plain = run_str(base, &stream).unwrap();
            let mut published: Vec<&str> = base.to_vec();
            published.extend_from_slice(&["--publish-interval", "64"]);
            let pub_out = run_str(&published, &stream).unwrap();
            let mut fresh: Vec<&str> = published.clone();
            fresh.extend_from_slice(&["--fresh", "on"]);
            let fresh_out = run_str(&fresh, &stream).unwrap();
            assert!(
                pub_out.contains("published : epoch"),
                "read-plane answer should report its epoch: {pub_out}"
            );
            assert!(
                pub_out.contains("(staleness 0)"),
                "a forced final publish covers the whole stream: {pub_out}"
            );
            assert!(!fresh_out.contains("published :"), "{fresh_out}");
            assert_eq!(digest_line(&plain), digest_line(&pub_out), "{algorithm}");
            assert_eq!(digest_line(&plain), digest_line(&fresh_out), "{algorithm}");
        }
    }

    #[test]
    fn supervised_publish_survives_chaos() {
        // Kill-sweep under a live read plane: the final published view
        // must still match the clean run bit for bit (incomplete
        // epochs from killed workers are discarded, never published).
        let stream: String = (0..600u64).map(|k| format!("{} 1\n", k % 40)).collect();
        let base = &[
            "engine", "--algorithm", "exact", "--shards", "3", "--batch", "16",
        ];
        let clean = run_str(base, &stream).unwrap();
        let mut chaotic: Vec<&str> = base.to_vec();
        chaotic.extend_from_slice(&[
            "--faults", "sweep@50=100", "--publish-interval", "128",
        ]);
        let out = run_str(&chaotic, &stream).unwrap();
        assert!(out.contains("published : epoch"), "{out}");
        assert!(out.contains("degraded  : no"), "{out}");
        assert_eq!(digest_line(&clean), digest_line(&out));
    }

    #[test]
    fn random_fault_plan_echoes_its_seed() {
        let stream: String = (0..200u64).map(|k| format!("{} 1\n", k % 10)).collect();
        let out = run_str(
            &[
                "engine", "--algorithm", "exact", "--shards", "2", "--batch", "16",
                "--faults", "rand=3@42",
            ],
            &stream,
        )
        .unwrap();
        assert!(out.contains("seed 42"), "{out}");
    }

    #[test]
    fn malformed_fault_spec_is_an_error() {
        let err = run_str(
            &["engine", "--algorithm", "exact", "--faults", "explode@everywhere"],
            "1 1\n",
        )
        .unwrap_err();
        assert!(err.contains("fault"), "{err}");
    }
}
