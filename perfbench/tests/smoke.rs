//! Smoke test: every workload at a tiny scale, traced and untraced.
//! Every metric `BENCHMARK.json` names must be printed, finite and in
//! its unit, and the correctness gate must pass on a second seed too.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hindex-perfbench");
const WORKLOADS: [&str; 3] = ["distinct_sketch", "exact_firehose", "live_dashboard"];

/// The text of `"key": "<value>"` at or after `from`.
fn string_after<'a>(text: &'a str, key: &str, from: usize) -> Option<(&'a str, usize)> {
    let tag = format!("\"{key}\": \"");
    let start = text[from..].find(&tag)? + from + tag.len();
    let end = text[start..].find('"')? + start;
    Some((&text[start..end], end))
}

/// `(name, unit)` of every metric in the `section` array of
/// `BENCHMARK.json`.
fn catalog(section: &str) -> Vec<(String, String)> {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside perfbench/");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = json[start..].find(']').expect("section closes") + start;
    let body = &json[start..end];
    let mut out = Vec::new();
    let mut at = 0;
    while let Some((name, after)) = string_after(body, "name", at) {
        let (unit, after) = string_after(body, "unit", after).expect("each metric has a unit");
        out.push((name.to_string(), unit.to_string()));
        at = after;
    }
    assert!(!out.is_empty(), "{section} lists metrics");
    out
}

/// Runs the benchmark and returns its last stdout line.
fn run(workload: &str, seed: &str, trace: &str) -> String {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", "0.02"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// Asserts the gate passed and every catalogued metric is present,
/// finite and carries its unit.
fn check(line: &str, metrics: &[(String, String)], what: &str) {
    assert!(line.starts_with("{\"correct\": true"), "{what}: {line}");
    assert!(line.contains("\"failed\": 0,"), "{what}: {line}");
    for (name, unit) in metrics {
        let tag = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&tag)
            .unwrap_or_else(|| panic!("{what}: no {name} in {line}"))
            + tag.len();
        let end = line[at..].find(',').expect("value ends") + at;
        let value: f64 = line[at..end]
            .parse()
            .unwrap_or_else(|_| panic!("{what}: {name} = `{}` is not a number", &line[at..end]));
        assert!(value.is_finite(), "{what}: {name} = {value}");
        let unit_tag = format!(", \"unit\": \"{unit}\"}}");
        assert!(
            line[end..].starts_with(&unit_tag),
            "{what}: {name} is not in {unit}"
        );
    }
}

#[test]
fn every_workload_reports_every_metric_and_passes_the_gate() {
    let end_to_end = catalog("end_to_end");
    let per_layer = catalog("per_layer");
    for workload in WORKLOADS {
        check(
            &run(workload, "1", "0"),
            &end_to_end,
            &format!("{workload} untraced"),
        );
        check(
            &run(workload, "1", "1"),
            &per_layer,
            &format!("{workload} traced"),
        );
        check(
            &run(workload, "2", "0"),
            &end_to_end,
            &format!("{workload} seed 2"),
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "exact_firehose",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "exact_firehose",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(BIN)
            .args(&args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
