//! `perfbench`: the repository's end-to-end, layer-attributed benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_dashboard --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run makes its input from `--seed`, then repeats end-to-end
//! passes over the real `hindex engine` path for `--seconds` seconds
//! (at least three), checks every answer against a serial replay of
//! the engine's own batches, and prints two lines: a details object
//! (host facts, tail percentiles and sample counts, the exact answer),
//! then the result object whose `metrics` are the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced run
//! alternates untraced and traced passes, so it also reports the
//! tracing overhead. Metric definitions: `perfbench/README.md`.

mod pass;
mod replay;
mod report;
mod stats;
mod workload;

use hindex_baseline::CashTable;
use hindex_common::{Delta, Epsilon};
use hindex_core::{CashRegisterHIndex, CashRegisterParams};
use pass::{Est, PassResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::Obj;
use stats::{median, tail, Tail};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Algorithm, Input, Spec, Workload};

/// Alg 6 accuracy at the CLI defaults.
const EPSILON: f64 = 0.2;
/// Alg 6 failure probability at the CLI defaults.
const DELTA: f64 = 0.1;

/// Passes a run makes however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The end-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 9] = [
    ("updates_per_s", "1/s"),
    ("final_answer_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("fresh_lag_p50_ms", "ms"),
    ("fresh_lag_tail_ms", "ms"),
    ("setup_s", "s"),
    ("space_words", "words"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 32] = [
    ("io.parse_s", "s"),
    ("router.ingest_call_s", "s"),
    ("router.ingest_call_tail_us", "us"),
    ("router.flush_ms", "ms"),
    ("router.skew", "ratio"),
    ("router.batches", "count"),
    ("apply.busy_s", "s"),
    ("apply.max_shard_busy_s", "s"),
    ("apply.bottleneck_share", "ratio"),
    ("apply.serial_s", "s"),
    ("apply.coalesce_factor", "ratio"),
    ("apply.tile_fill", "ratio"),
    ("apply.touches_per_item", "ratio"),
    ("apply.ns_per_coalesced_item", "ns"),
    ("merge.clone_ms", "ms"),
    ("merge.merge_ms", "ms"),
    ("read_plane.epochs", "count"),
    ("read_plane.publish_call_ms", "ms"),
    ("read_plane.publish_complete_ms", "ms"),
    ("read_plane.view_merge_ms", "ms"),
    ("reader.query_ns", "ns"),
    ("reader.estimate_ms", "ms"),
    ("reader.late_ms", "ms"),
    ("supervisor.frames", "count"),
    ("supervisor.frame_bytes", "bytes"),
    ("supervisor.frame_encode_ms", "ms"),
    ("setup.prototype_ms", "ms"),
    ("setup.spawn_ms", "ms"),
    ("trace.updates_per_s", "1/s"),
    ("trace.overhead", "ratio"),
    ("pass.total_s", "s"),
    ("answer.h_abs_err", "count"),
];

const USAGE: &str = "usage: perfbench --workload <distinct_sketch|exact_firehose|live_dashboard> \
                     --seed <n> --seconds <n> --trace <0|1> [--scale <f>]";

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Stream-length multiplier (the smoke test runs tiny inputs).
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let need = |flag: &str| get(flag)?.ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str, v: &str| v.parse::<u64>().map_err(|_| format!("bad {flag} `{v}`"));
    let name = need("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`")),
    };
    let scale = match get("--scale")? {
        None => 1.0,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && s.is_finite())
            .ok_or_else(|| format!("bad --scale `{v}`"))?,
    };
    Ok(Args {
        workload,
        seed: number("--seed", need("--seed")?)?,
        seconds: number("--seconds", need("--seconds")?)?,
        trace,
        scale,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec(args.scale, report::cores());
    let input = workload::generate(args.workload, &spec, args.seed);
    let (details, result) = match spec.algorithm {
        Algorithm::Sketch => {
            let params = CashRegisterParams::Additive {
                epsilon: Epsilon::new(EPSILON).expect("valid epsilon"),
                delta: Delta::new(DELTA).expect("valid delta"),
            };
            // The sketch's own randomness is the CLI default (`--seed 0`);
            // the workload seed makes the input only.
            measure(&args, &spec, &input, || {
                CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(0))
            })
        }
        Algorithm::Exact => measure(&args, &spec, &input, CashTable::new),
    };
    println!("{details}");
    println!("{result}");
    ExitCode::SUCCESS
}

/// Seconds as `f64`.
fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds as `f64`.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `f` over `passes`.
fn med(passes: &[&PassResult], f: impl Fn(&PassResult) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// `f` of every sample of every pass.
fn pooled<T>(
    passes: &[&PassResult],
    samples: impl Fn(&PassResult) -> &[T],
    f: impl Fn(&T) -> f64,
) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| samples(p).iter().map(&f))
        .collect()
}

fn tail_json(t: &Tail) -> String {
    Obj::default()
        .num("percentile", t.percentile)
        .num("samples", t.samples as f64)
        .finish()
}

/// Runs the passes, checks them, and renders the details and result
/// lines.
fn measure<E: Est>(
    args: &Args,
    spec: &Spec,
    input: &Input,
    proto: impl Fn() -> E,
) -> (String, String) {
    // Set-up is timed twice per pass, once in the pass and once alone,
    // so its samples spread over the whole run like the passes do.
    let mut setups: Vec<f64> = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut passes: Vec<PassResult> = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        let traced = args.trace && passes.len() % 2 == 1;
        let start = workload::rotation(args.seed, passes.len(), input.items.len());
        // Early publishes cycle through every checkpoint phase.
        let early = passes.len() % pass::CHECKPOINT_INTERVAL as usize;
        let p = pass::run(spec, input.text_from(start), &proto, traced, early);
        if passes.is_empty() {
            // The first pass's peak, in a process that has held nothing
            // but the input: later passes inherit allocator state, and
            // the reference below is the benchmark's memory.
            peak_rss_mb = report::peak_rss_mb();
        }
        setups.push(secs(p.prototype + p.spawn));
        passes.push(p);
        let (built, spawned) = pass::setup(spec, &proto);
        setups.push(secs(built + spawned));
    }

    // The correctness gate: the serial replay of the last (traced, in a
    // traced run) pass's batches is the reference every pass must match.
    let (last_index, last) = passes
        .iter()
        .enumerate()
        .rev()
        .find(|(_, p)| p.traced == args.trace)
        .expect("a pass ran");
    let stream = input.items_from(workload::rotation(args.seed, last_index, input.items.len()));
    let batches = replay::rebuild(&stream, spec.shards, spec.batch, &last.flush_points);
    let prototype = proto();
    let reference = replay::replay(&prototype, &batches);
    let bound = match spec.algorithm {
        Algorithm::Exact => 0.0,
        Algorithm::Sketch => EPSILON * input.distinct as f64,
    };
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        attempted += p.attempts + 2;
        failures.extend(p.failures.iter().map(|f| format!("pass {i}: {f}")));
        if p.digest != reference.digest {
            failures.push(format!(
                "pass {i}: digest {:#018x} differs from the serial replay's {:#018x}",
                p.digest, reference.digest
            ));
        }
        let err = p.estimate.abs_diff(input.exact_h);
        if err as f64 > bound {
            failures.push(format!(
                "pass {i}: estimate {} is {err} from the exact {} (bound {bound})",
                p.estimate, input.exact_h
            ));
        }
    }

    let all: Vec<&PassResult> = passes.iter().collect();
    let measured: Vec<&PassResult> = passes.iter().filter(|p| p.traced == args.trace).collect();
    let rate = |ps: &[&PassResult]| med(ps, |p| input.items.len() as f64 / secs(p.total));
    let reads = tail(&pooled(&measured, |p| &p.reads, |r| ms(r.latency)));
    let lags = tail(&pooled(&measured, |p| &p.fresh_lags, |&d| ms(d)));

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    let mut extra = Obj::default();
    if args.trace {
        let (serial, serial_digest) = replay::serial(&prototype, &input.items, spec.batch);
        attempted += 1;
        if serial_digest != reference.digest {
            failures.push("single-threaded baseline digest differs from the sharded replay".into());
        }
        let untraced: Vec<&PassResult> = all.iter().copied().filter(|p| !p.traced).collect();
        let calls = tail(&pooled(&measured, |p| &p.ingest_calls, |d| secs(*d) * 1e6));
        let late = tail(&pooled(&measured, |p| &p.reads, |r| ms(r.late)));
        let per_shard: Vec<u64> = batches
            .iter()
            .map(|b| b.iter().map(|x| x.len() as u64).sum())
            .collect();
        let mean_shard = input.items.len() as f64 / spec.shards as f64;
        let busy: Vec<f64> = reference.busy.iter().map(|&d| secs(d)).collect();
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        let coalesced = replay::coalesced_items(&batches) as f64;
        let bank = last.bank.unwrap_or_default();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut encode = Vec::new();
        let mut frame_bytes = Vec::new();
        for state in &reference.shards {
            let t = Instant::now();
            let bytes = std::hint::black_box(state.to_bytes());
            encode.push(ms(t.elapsed()));
            frame_bytes.push(bytes.len() as f64);
        }
        let obs = last.obs.as_ref();
        metrics.extend([
            ("io.parse_s", med(&measured, |p| secs(p.parse))),
            (
                "router.ingest_call_s",
                med(&measured, |p| p.ingest_calls.iter().map(|&d| secs(d)).sum()),
            ),
            ("router.ingest_call_tail_us", calls.value),
            ("router.flush_ms", med(&measured, |p| ms(p.flush))),
            (
                "router.skew",
                per_shard.iter().copied().max().unwrap_or(0) as f64 / mean_shard,
            ),
            (
                "router.batches",
                batches.iter().map(Vec::len).sum::<usize>() as f64,
            ),
            ("apply.busy_s", busy.iter().sum()),
            ("apply.max_shard_busy_s", max_busy),
            // Ingest wall: first ingest call to the final answer, which
            // waits for the workers to drain their queues.
            (
                "apply.bottleneck_share",
                max_busy / secs(last.total - last.parse),
            ),
            ("apply.serial_s", secs(serial)),
            (
                "apply.coalesce_factor",
                input.items.len() as f64 / coalesced,
            ),
            (
                "apply.tile_fill",
                ratio(bank.tile_items, bank.tile_capacity),
            ),
            (
                "apply.touches_per_item",
                ratio(bank.level_touches, bank.pow_evals + bank.pow_reused),
            ),
            (
                "apply.ns_per_coalesced_item",
                busy.iter().sum::<f64>() * 1e9 / coalesced,
            ),
            ("merge.clone_ms", ms(reference.clone)),
            ("merge.merge_ms", ms(reference.merge)),
            (
                "read_plane.epochs",
                obs.map_or(0, |o| o.views_published) as f64,
            ),
            (
                "read_plane.publish_call_ms",
                med(&measured, |p| p.publish_call.map_or(0.0, ms)),
            ),
            (
                "read_plane.publish_complete_ms",
                med(&measured, |p| p.publish_complete.map_or(0.0, ms)),
            ),
            (
                "read_plane.view_merge_ms",
                obs.map_or(0.0, |o| o.publish_ns.mean_ns as f64 / 1e6),
            ),
            (
                "reader.query_ns",
                median(&pooled(&measured, |p| &p.reads, |r| secs(r.query) * 1e9)),
            ),
            (
                "reader.estimate_ms",
                median(&pooled(&measured, |p| &p.reads, |r| ms(r.estimate))),
            ),
            ("reader.late_ms", late.value),
            (
                "supervisor.frames",
                obs.map_or(0, |o| o.micro_checkpoints) as f64,
            ),
            ("supervisor.frame_bytes", median(&frame_bytes)),
            ("supervisor.frame_encode_ms", median(&encode)),
            ("setup.prototype_ms", med(&measured, |p| ms(p.prototype))),
            ("setup.spawn_ms", med(&measured, |p| ms(p.spawn))),
            ("trace.updates_per_s", rate(&measured)),
            ("trace.overhead", rate(&untraced) / rate(&measured) - 1.0),
            ("pass.total_s", med(&measured, |p| secs(p.total))),
            (
                "answer.h_abs_err",
                med(&measured, |p| p.estimate.abs_diff(input.exact_h) as f64),
            ),
        ]);
        extra = extra
            .raw("router_ingest_call_tail", &tail_json(&calls))
            .raw("reader_late_tail", &tail_json(&late))
            .num("untraced_updates_per_s", rate(&untraced));
    } else {
        metrics.extend([
            ("updates_per_s", rate(&measured)),
            ("final_answer_ms", med(&measured, |p| ms(p.final_answer))),
            (
                "read_p50_ms",
                median(&pooled(&measured, |p| &p.reads, |r| ms(r.latency))),
            ),
            ("read_tail_ms", reads.value),
            (
                "fresh_lag_p50_ms",
                median(&pooled(&measured, |p| &p.fresh_lags, |&d| ms(d))),
            ),
            ("fresh_lag_tail_ms", lags.value),
            ("setup_s", median(&setups)),
            ("space_words", med(&measured, |p| p.space_words as f64)),
            ("peak_rss_mb", peak_rss_mb),
        ]);
    }

    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Obj::default();
    for &(name, unit) in catalog {
        let value = metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v);
        body = body.raw(
            name,
            &Obj::default()
                .num("value", value)
                .str("unit", unit)
                .finish(),
        );
    }
    let details = Obj::default()
        .str("workload", args.workload.name())
        .raw("host", &report::host(args.seed))
        .raw(
            "spec",
            &Obj::default()
                .num("updates", spec.updates as f64)
                .num("shards", spec.shards as f64)
                .num("batch", spec.batch as f64)
                .num("queue_depth", spec.queue_depth as f64)
                .num("chunk", spec.chunk as f64)
                .num(
                    "publish_interval",
                    spec.publish_interval.unwrap_or(0) as f64,
                )
                .num("read_hz", spec.read_hz)
                .str(
                    "engine",
                    if spec.supervised {
                        "SupervisedEngine"
                    } else {
                        "ShardedEngine"
                    },
                )
                .str(
                    "estimator",
                    match spec.algorithm {
                        Algorithm::Sketch => "CashRegisterHIndex (Alg 6)",
                        Algorithm::Exact => "CashTable",
                    },
                )
                .finish(),
        )
        .num("passes", measured.len() as f64)
        .num("setups", setups.len() as f64)
        .num("exact_h", input.exact_h as f64)
        .num("distinct_papers", input.distinct as f64)
        .num("estimate", last.estimate as f64)
        .num("error_bound", bound)
        .raw("read_tail", &tail_json(&reads))
        .raw("fresh_lag_tail", &tail_json(&lags))
        .raw(
            "failures",
            &report::array(failures.iter().take(8).map(|f| report::string(f))),
        )
        .raw("trace", &extra.finish())
        .finish();
    let result = Obj::default()
        .raw(
            "correct",
            if failures.is_empty() { "true" } else { "false" },
        )
        .num("attempted", attempted as f64)
        .num("failed", failures.len() as f64)
        .raw("metrics", &body.finish())
        .finish();
    (details, result)
}
