//! One intentional-violation fixture per lint class, plus a clean
//! fixture asserting the pass is quiet on conforming code. These pin
//! the *detection* behaviour: if a lint regresses into silence, these
//! fail even though the repository itself stays clean.

use hindex_analysis::workspace::Workspace;
use hindex_analysis::run_lints;

fn ws(files: &[(&str, &str)]) -> Workspace {
    Workspace::from_sources(
        files
            .iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect(),
    )
}

/// A conforming library file: checked helpers, no panics outside
/// test code.
const CLEAN_ROOT: &str = r#"
//! Crate docs.
#![forbid(unsafe_code)]

/// Canonicalise via the checked helper.
pub fn residue(delta: i64) -> u64 {
    hindex_hashing::from_i64(delta)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_and_panic() {
        let x: Option<u64> = Some(3);
        assert_eq!(x.unwrap(), 3);
        if false {
            panic!("fine in tests");
        }
    }
}
"#;

#[test]
fn clean_fixture_is_quiet() {
    let findings = run_lints(&ws(&[("crates/sketch/src/lib.rs", CLEAN_ROOT)]));
    assert!(
        findings.is_empty(),
        "clean fixture should produce no findings, got: {findings:?}"
    );
}

#[test]
fn l1_catches_raw_field_arithmetic() {
    let bad = "#![forbid(unsafe_code)]\n\
               pub fn residue(delta: i64) -> u64 {\n\
                   delta.rem_euclid(MERSENNE_P as i64) as u64\n\
               }\n\
               pub fn product(a: u64, b: u64) -> u64 {\n\
                   (a * b) % MERSENNE_P\n\
               }\n";
    let findings = run_lints(&ws(&[("crates/sketch/src/lib.rs", bad)]));
    let l1: Vec<_> = findings.iter().filter(|f| f.lint == "L1").collect();
    assert_eq!(l1.len(), 2, "both lines lint: {findings:?}");
    assert_eq!(l1[0].line, 3);
    assert_eq!(l1[1].line, 6);
    // Same pattern inside hashing's field module is the one sanctioned home.
    let home = run_lints(&ws(&[("crates/hashing/src/field.rs", bad)]));
    assert!(home.iter().all(|f| f.lint != "L1"));
}

#[test]
fn l2_catches_estimator_without_space_contract() {
    // `Bad` implements an estimator trait but no SpaceUsage and is not
    // referenced from the contract suite; `Good` has both.
    let src = "#![forbid(unsafe_code)]\n\
               impl AggregateEstimator for Bad { }\n\
               impl CashRegisterEstimator for Good { }\n\
               impl SpaceUsage for Good { }\n";
    let suite = "fn covers() { let _ = Good::default(); }\n";
    let findings = run_lints(&ws(&[
        ("crates/core/src/lib.rs", src),
        ("tests/space_contracts.rs", suite),
    ]));
    let l2: Vec<_> = findings.iter().filter(|f| f.lint == "L2").collect();
    assert_eq!(l2.len(), 2, "missing impl + missing test ref: {findings:?}");
    assert!(l2.iter().all(|f| f.message.contains("Bad")));
}

#[test]
fn l9_catches_panic_paths_in_library_code() {
    let bad = "#![forbid(unsafe_code)]\n\
               pub fn f(x: Option<u64>) -> u64 {\n\
                   let a = x.unwrap();\n\
                   let b = x.expect(\"state out of sync\");\n\
                   if a != b { unreachable!() }\n\
                   a\n\
               }\n";
    let findings = run_lints(&ws(&[("crates/engine/src/lib.rs", bad)]));
    let snippets: Vec<_> = findings
        .iter()
        .filter(|f| f.lint == "L9")
        .map(|f| f.snippet.as_str())
        .collect();
    assert_eq!(
        snippets,
        vec!["unwrap()", "expect(\"state out of sync\")", "unreachable!"]
    );
    // The same code in a test, bench, or tool file is exempt.
    for exempt in ["tests/adversarial.rs", "crates/cli/src/main.rs", "benches/speed.rs"] {
        let f = run_lints(&ws(&[(exempt, bad)]));
        assert!(f.iter().all(|x| x.lint != "L9"), "{exempt} should be exempt");
    }
}

#[test]
fn l9_traces_panic_through_two_deep_call_chain() {
    // The seeded violation the issue asks for: an entry point whose
    // panic sits two calls away — only a call-graph walk can tie the
    // `.unwrap()` back to `ingest`.
    let src = "#![forbid(unsafe_code)]\n\
               pub struct Sketch { level: u32 }\n\
               impl Sketch {\n\
                   pub fn ingest(&mut self, v: u64) { self.place(v); }\n\
                   fn place(&mut self, v: u64) { let _ = slot(v); }\n\
               }\n\
               fn slot(v: u64) -> u64 { pick(v).unwrap() }\n\
               fn pick(v: u64) -> Option<u64> { v.checked_add(1) }\n";
    let findings = run_lints(&ws(&[("crates/sketch/src/deep.rs", src)]));
    let l9: Vec<_> = findings.iter().filter(|f| f.lint == "L9").collect();
    assert_eq!(l9.len(), 1, "{findings:?}");
    assert!(
        l9[0].message.contains("ingest -> place -> slot"),
        "diagnostic should carry the call chain: {:?}",
        l9[0].message
    );
}

#[test]
fn l11_catches_cross_file_coverage_gaps() {
    // `Covered` is fully compliant (Snapshot impl, both suites);
    // `NoSnapshot` merges but cannot be checkpointed; `NoTest` is
    // persistable but absent from the round-trip suite — a gap only a
    // cross-file view can see.
    let src = "#![forbid(unsafe_code)]\n\
               impl Mergeable for Covered { }\n\
               impl Snapshot for Covered { }\n\
               impl Mergeable for NoSnapshot { }\n\
               impl Mergeable for NoTest { }\n\
               impl Snapshot for NoTest { }\n";
    let suite = "fn roundtrip() { let _ = Covered::default(); }\n";
    let findings = run_lints(&ws(&[
        ("crates/core/src/lib.rs", src),
        (
            "tests/merge_semantics.rs",
            "fn m() { Covered::default(); NoSnapshot::default(); NoTest::default(); }\n",
        ),
        ("tests/snapshot_roundtrip.rs", suite),
    ]));
    let l11: Vec<_> = findings.iter().filter(|f| f.lint == "L11").collect();
    assert_eq!(l11.len(), 3, "{findings:?}");
    assert!(l11.iter().any(|f| f.message.contains("NoSnapshot") && f.message.contains("no `Snapshot` impl")));
    assert!(l11.iter().any(|f| f.message.contains("NoSnapshot") && f.message.contains("not referenced")));
    assert!(l11.iter().any(|f| f.message.contains("NoTest") && f.message.contains("not referenced")));
}

#[test]
fn l10_catches_raw_arithmetic_on_stream_values() {
    let src = "#![forbid(unsafe_code)]\n\
               pub struct Acc { total: u64 }\n\
               impl Acc {\n\
                   pub fn ingest(&mut self, delta: u64) {\n\
                       self.total = self.total + delta;\n\
                   }\n\
               }\n";
    let findings = run_lints(&ws(&[("crates/core/src/acc.rs", src)]));
    let l10: Vec<_> = findings.iter().filter(|f| f.lint == "L10").collect();
    assert_eq!(l10.len(), 1, "{findings:?}");
    assert_eq!(l10[0].line, 5);

    // The checked spelling of the same update is quiet.
    let good = src.replace(
        "self.total + delta",
        "self.total.saturating_add(delta)",
    );
    let findings = run_lints(&ws(&[("crates/core/src/acc.rs", good.as_str())]));
    assert!(findings.iter().all(|f| f.lint != "L10"), "{findings:?}");
}

#[test]
fn baseline_keys_silence_exact_findings_only() {
    use hindex_analysis::baseline::{apply, Baseline};
    let bad = "#![forbid(unsafe_code)]\n\
               pub fn f(x: Option<u64>) -> u64 { x.expect(\"sync\") }\n";
    let findings = run_lints(&ws(&[("crates/core/src/lib.rs", bad)]));
    assert_eq!(findings.len(), 1);
    let key = findings[0].key();
    assert_eq!(key, "L9|crates/core/src/lib.rs|expect(\"sync\")");

    let silenced = apply(&Baseline::parse(&format!("{key}  # audited")), findings.clone());
    assert!(silenced.new.is_empty());
    assert_eq!(silenced.silenced, 1);
    assert!(silenced.stale.is_empty());
    assert!(silenced.unjustified.is_empty());

    let other = apply(&Baseline::parse("L9|other.rs|unwrap()  # elsewhere"), findings);
    assert_eq!(other.new.len(), 1);
    assert_eq!(other.stale.len(), 1);
}
