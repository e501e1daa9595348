//! Parser validation against *real* workspace sources (golden tests)
//! plus a property test that the span-tiling invariant — every lexed
//! token covered by exactly one top-level AST span — holds on
//! adversarial token soup, not just well-formed Rust.

use hindex_analysis::ast::{check_tiling, Item, ItemKind};
use hindex_analysis::lexer::lex;
use hindex_analysis::parse::parse;
use std::path::PathBuf;

fn repo_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn parse_checked(src: &str) -> (usize, Vec<Item>) {
    let tokens = lex(src);
    let items = parse(&tokens);
    check_tiling(&items, tokens.len()).expect("span tiling on real source");
    (tokens.len(), items)
}

/// Flattens the item tree and collects `(kind-tag, name)` facts.
fn named_items(items: &[Item], out: &mut Vec<(&'static str, String)>) {
    for item in items {
        match &item.kind {
            ItemKind::Fn(f) => out.push(("fn", f.name.clone())),
            ItemKind::Struct(s) => out.push(("struct", s.name.clone())),
            ItemKind::Trait(t) => out.push(("trait", t.name.clone())),
            ItemKind::Impl(i) => out.push((
                "impl",
                match &i.trait_name {
                    Some(t) => format!("{t} for {}", i.self_ty),
                    None => i.self_ty.clone(),
                },
            )),
            _ => {}
        }
        named_items(item.children(), out);
    }
}

fn facts(src: &str) -> Vec<(&'static str, String)> {
    let (_count, items) = parse_checked(src);
    let mut out = Vec::new();
    named_items(&items, &mut out);
    out
}

#[test]
fn golden_common_traits() {
    let src = repo_file("crates/common/src/traits.rs");
    let facts = facts(&src);
    for trait_name in [
        "Estimate",
        "AggregateEstimator",
        "CashRegisterEstimator",
        "TurnstileEstimator",
        "Mergeable",
        "EstimatorParams",
        "SpaceUsage",
    ] {
        assert!(
            facts.iter().any(|(k, n)| *k == "trait" && n == trait_name),
            "trait `{trait_name}` not found; parsed: {facts:?}"
        );
    }
    // The unified verb is visible as a method on each ingestion trait.
    let ingest_fns = facts.iter().filter(|(k, n)| *k == "fn" && n == "ingest").count();
    assert!(ingest_fns >= 3, "expected ingest on all three traits: {facts:?}");
}

#[test]
fn golden_one_heavy_hitter() {
    let src = repo_file("crates/core/src/one_heavy_hitter.rs");
    let facts = facts(&src);
    assert!(facts.iter().any(|(k, n)| *k == "struct" && n == "OneHeavyHitter"), "{facts:?}");
    for impl_name in [
        "Snapshot for OneHeavyHitter",
        "Mergeable for OneHeavyHitter",
        "SpaceUsage for OneHeavyHitter",
    ] {
        assert!(
            facts.iter().any(|(k, n)| *k == "impl" && n == impl_name),
            "impl `{impl_name}` not found: {facts:?}"
        );
    }
    // Inherent methods parse as children of the inherent impl.
    assert!(
        facts.iter().any(|(k, n)| *k == "fn" && n == "decode"),
        "decode should be visible to the parser: {facts:?}"
    );
}

#[test]
fn golden_sketch_reservoir() {
    let src = repo_file("crates/sketch/src/reservoir.rs");
    let facts = facts(&src);
    assert!(facts.iter().any(|(k, n)| *k == "struct" && n == "Reservoir"), "{facts:?}");
    assert!(
        facts.iter().any(|(k, n)| *k == "impl" && n.starts_with("SpaceUsage for")),
        "{facts:?}"
    );
    for method in ["items", "seen", "capacity", "is_full", "from_parts"] {
        assert!(
            facts.iter().any(|(k, n)| *k == "fn" && n == method),
            "method `{method}` not found: {facts:?}"
        );
    }
}

/// Source fragments the property test splices together. Deliberately
/// includes unbalanced braces, half items, raw strings, nested
/// comments, and macro soup — the parser must stay total and keep the
/// tiling invariant on all of it.
const FRAGMENTS: &[&str] = &[
    "fn f(",
    ") -> u64 {",
    "}",
    "{",
    "impl Trait for Type",
    "#[cfg(test)]",
    "#[derive(Debug, Clone)]",
    "pub struct S { x: u64, }",
    "trait T: Base {",
    "mod m;",
    "use a::b::{c, d};",
    "let x = v[i] + 1;",
    "match x { Some(_) => 1, None => 2 }",
    "r#\"raw \"# almost\"#",
    "\"plain string\"",
    "/* nested /* comment */ */",
    "// line comment\n",
    "'a",
    "'x'",
    "1.5e3",
    "0xfff_usize",
    "::<>",
    ";",
    ";;",
    "macro_rules! m { () => {} }",
    "async fn g() {}",
    "unsafe { *p }",
    "where K: Ord,",
    "-> impl Iterator<Item = u64>",
    "const C: u64 = 1;",
    "enum E { A, B(u64) }",
    "#![forbid(unsafe_code)]",
    "pub(crate) fn h() {}",
    "|acc, x| acc + x",
    "if a < b { c } else { d }",
];

proptest::proptest! {
    #[test]
    fn prop_every_token_in_exactly_one_span(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..48),
    ) {
        let src: String = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join(" ");
        let tokens = lex(&src);
        let items = parse(&tokens);
        // check_tiling asserts precisely "each token index in [0, n) is
        // covered by exactly one top-level span, in order".
        proptest::prop_assert!(
            check_tiling(&items, tokens.len()).is_ok(),
            "tiling violated for source: {src:?}"
        );
    }
}
