//! Rules over the library's source text that neither rustc nor clippy
//! can state (docs/ANALYSIS.md, "The source-text test").
//!
//! * **Field arithmetic stays in `hindex-hashing::field`.** No library
//!   line outside `crates/hashing/src/field.rs` puts a raw `%`, `*` or
//!   `as` on the same line as `MERSENNE_P`: reductions, products and
//!   conversions of field elements go through the checked helpers
//!   (`from_u64`, `from_i64`, `mersenne_mul`, `mersenne_reduce`), which
//!   carry the canonicality invariants. Ad-hoc reductions are where the
//!   `2⁶¹ − 1 ≠ 2⁶¹` off-by-ones live.
//! * **The suites name every contract type.** Each estimator is named by
//!   `tests/space_contracts.rs`, and each `Mergeable` type by
//!   `tests/merge_semantics.rs` and `tests/snapshot_roundtrip.rs`. The
//!   companion traits themselves (`SpaceUsage`, `Snapshot`) are
//!   supertraits, so the compiler enforces them.
//!
//! The scan is line-based: `//` comments are dropped, and a
//! `#[cfg(test)]` module is skipped from its `mod` line to the `}` at
//! the same indent. Other `#[cfg(test)]` items (test-only helpers) are
//! scanned like library code.

use std::fs;
use std::path::{Path, PathBuf};

/// Library source roots: the estimator stack, the facade and the CLI.
const LIBRARY: &[&str] = &[
    "src",
    "crates/common/src",
    "crates/hashing/src",
    "crates/sketch/src",
    "crates/stream/src",
    "crates/baseline/src",
    "crates/core/src",
    "crates/engine/src",
    "crates/obs/src",
    "crates/cli/src",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(line number, code)` for every line of `text` outside its
/// `#[cfg(test)]` modules, with `//` comments removed.
fn code_lines(text: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut no = 0;
    while no < lines.len() {
        if lines[no].trim_start().starts_with("#[cfg(test)]") {
            // The item the attribute gates: the next line that is not
            // itself an attribute.
            let item = (no + 1..lines.len()).find(|&i| !lines[i].trim_start().starts_with("#["));
            if let Some(item) = item.filter(|&i| is_mod_with_body(lines[i])) {
                let indent = &lines[item][..lines[item].len() - lines[item].trim_start().len()];
                let close = format!("{indent}}}");
                no = (item + 1..lines.len())
                    .find(|&i| lines[i] == close)
                    .unwrap_or(lines.len())
                    + 1;
                continue;
            }
        }
        let code = lines[no].split("//").next().unwrap_or_default();
        out.push((no + 1, code.to_string()));
        no += 1;
    }
    out
}

/// Whether `line` opens an inline module (`mod name {`).
fn is_mod_with_body(line: &str) -> bool {
    let line = line.trim();
    let line = line
        .strip_prefix("pub ")
        .or_else(|| line.strip_prefix("pub(crate) "))
        .unwrap_or(line);
    line.starts_with("mod ") && line.ends_with('{')
}

/// `(file, line number, code)` for every library line outside the
/// `#[cfg(test)]` modules, with `//` comments removed.
fn library_lines() -> Vec<(String, usize, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in LIBRARY {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut lines = Vec::new();
    for path in files {
        let name = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path).unwrap();
        lines.extend(
            code_lines(&text)
                .into_iter()
                .map(|(no, code)| (name.clone(), no, code)),
        );
    }
    lines
}

/// Whether `word` occurs in `text` as a whole identifier.
fn names(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + word.len()..].starts_with(ident))
}

/// Whether a line outside `field.rs` applies raw `%`, `*` or `as` to
/// `MERSENNE_P`.
fn raw_field_arithmetic(file: &str, code: &str) -> bool {
    file != "crates/hashing/src/field.rs"
        && names(code, "MERSENNE_P")
        && (code.contains('%') || code.contains('*') || names(code, "as"))
}

#[test]
fn field_arithmetic_goes_through_the_field_helpers() {
    let offenders: Vec<String> = library_lines()
        .into_iter()
        .filter(|(file, _, code)| raw_field_arithmetic(file, code))
        .map(|(file, no, code)| format!("{file}:{no}: {}", code.trim()))
        .collect();
    assert!(
        offenders.is_empty(),
        "raw `%`/`*`/`as` on MERSENNE_P outside hindex-hashing::field; use from_u64, \
         from_i64, mersenne_mul or mersenne_reduce:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_suites_name_every_estimator_and_mergeable_type() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let suite = |name: &str| fs::read_to_string(root.join("tests").join(name)).unwrap();
    let rows = [
        ("AggregateEstimator", vec![suite("space_contracts.rs")]),
        ("CashRegisterEstimator", vec![suite("space_contracts.rs")]),
        ("TurnstileEstimator", vec![suite("space_contracts.rs")]),
        (
            "Mergeable",
            vec![suite("merge_semantics.rs"), suite("snapshot_roundtrip.rs")],
        ),
    ];
    let mut missing = Vec::new();
    for (file, no, code) in library_lines() {
        let code = code.trim_start();
        if !code.starts_with("impl") {
            continue;
        }
        for (trait_name, suites) in &rows {
            let Some((_, rest)) = code.split_once(&format!("{trait_name} for ")) else {
                continue;
            };
            let ty: String = rest
                .chars()
                .take_while(|&c| c.is_alphanumeric() || c == '_')
                .collect();
            if suites.iter().any(|s| !names(s, &ty)) {
                missing.push(format!("{file}:{no}: `{trait_name}` impl for `{ty}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "types not named by every suite of their contract (space_contracts for estimators; \
         merge_semantics and snapshot_roundtrip for Mergeable):\n{}",
        missing.join("\n")
    );
}

/// The scan reads past a test-only helper to the code below it, and
/// skips only the test module: a raw reduction inserted into
/// `PairwiseHash::hash`, below the `#[cfg(test)]` constructor
/// `from_params`, is reported; the same line inside `mod tests` is not.
#[test]
fn the_scan_sees_past_test_only_helpers() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/hashing/src/pairwise.rs");
    let text = fs::read_to_string(path).unwrap();
    let probe = "        let _ = key % MERSENNE_P;";
    let insert_after = |marker: &str| {
        let mut lines: Vec<&str> = text.lines().collect();
        let at = lines.iter().position(|l| l.contains(marker)).unwrap();
        assert!(
            lines[..at].iter().any(|l| l.contains("fn from_params")),
            "`{marker}` must sit below the test-only helper"
        );
        lines.insert(at + 1, probe);
        (at + 2, lines.join("\n"))
    };
    let flagged = |text: &str| -> Vec<usize> {
        code_lines(text)
            .into_iter()
            .filter(|(_, code)| raw_field_arithmetic("crates/hashing/src/pairwise.rs", code))
            .map(|(no, _)| no)
            .collect()
    };
    assert_eq!(flagged(&text), Vec::<usize>::new());
    let (no, in_hash) = insert_after("fn hash(&self, key: u64)");
    assert_eq!(flagged(&in_hash), vec![no]);
    let (_, in_tests) = insert_after("mod tests {");
    assert_eq!(flagged(&in_tests), Vec::<usize>::new());
}
