//! The lint catalogue: the repo-specific rules rustc and clippy cannot
//! express.
//!
//! L1 is a token-level rule and documents the approximation it makes.
//! The coverage table (L2, L11) and the dataflow rules (L9, L10)
//! consume the [`crate::Analysis`] context — parsed item trees,
//! workspace symbol tables, and the conservative call graph — so they
//! can answer *coverage* and *reachability* questions no single-file
//! scan can.
//!
//! Ids are never reused. Retired: L3 (token-only panic scan) grew into
//! L9; L5/L6 (Mergeable test coverage) merged into L11; L4, L7, L8 and
//! L12 were deleted because rustc, clippy or cargo enforce what still
//! mattered of them (see `docs/ANALYSIS.md`).
//!
//! False positives are expected to be rare and are handled by the
//! committed baseline, never by weakening a rule.

use crate::ast::Span;
use crate::lexer::{TokKind, Token};
use crate::resolve::{FnInfo, ImplInfo, Resolver};
use crate::workspace::SourceFile;
use crate::{Analysis, Finding};
use std::collections::{BTreeMap, HashSet};

/// Renders one line's tokens back into a compact, format-insensitive
/// snippet for diagnostics and baseline keys.
fn render(tokens: &[&Token]) -> String {
    let mut s = String::new();
    for t in tokens {
        if !s.is_empty() {
            s.push(' ');
        }
        match t.kind {
            TokKind::Str => {
                s.push('"');
                s.push_str(&t.text);
                s.push('"');
            }
            TokKind::Char => {
                s.push('\'');
                s.push_str(&t.text);
                s.push('\'');
            }
            TokKind::Lifetime => {
                s.push('\'');
                s.push_str(&t.text);
            }
            _ => s.push_str(&t.text),
        }
    }
    s
}

/// Renders a token index range `[lo, hi)` of a file's stream.
fn render_range(tokens: &[Token], lo: usize, hi: usize) -> String {
    let refs: Vec<&Token> = tokens[lo.min(tokens.len())..hi.min(tokens.len())].iter().collect();
    render(&refs)
}

/// Groups a file's tokens by source line, skipping test-only code.
fn live_lines(file: &SourceFile) -> BTreeMap<u32, Vec<&Token>> {
    let mut lines: BTreeMap<u32, Vec<&Token>> = BTreeMap::new();
    for t in &file.tokens {
        if !file.in_test_code(t.line) {
            lines.entry(t.line).or_default().push(t);
        }
    }
    lines
}

/// Index of the matching close bracket for the open bracket at `open`,
/// scanning no further than `end`.
fn matching_close(tokens: &[Token], open: usize, end: usize) -> Option<usize> {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().take(end.min(tokens.len())).skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the matching open bracket for the close bracket at
/// `close`, scanning back no further than `start`.
fn matching_open(tokens: &[Token], close: usize, start: usize) -> Option<usize> {
    let (o, c) = match tokens[close].text.as_str() {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        "}" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i64;
    let mut k = close;
    loop {
        let t = &tokens[k];
        if t.is_punct(c) {
            depth += 1;
        } else if t.is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        if k == start {
            return None;
        }
        k -= 1;
    }
}

/// L1 — field arithmetic must go through `hindex-hashing::field`.
///
/// Flags any library-code line (outside `crates/hashing/src/field.rs`)
/// that mentions `MERSENNE_P` together with raw `%`, `*`, or an `as`
/// cast: reductions, products, and narrowing conversions on field
/// elements belong to the checked helpers (`from_u64`, `from_i64`,
/// `mersenne_mul`, `mersenne_reduce`), which carry the canonicality
/// invariants. Line-based: an expression split across lines so that the
/// constant and the operator land on different lines is not caught.
pub struct FieldArithmetic;

impl crate::Lint for FieldArithmetic {
    fn id(&self) -> &'static str {
        "L1"
    }
    fn summary(&self) -> &'static str {
        "raw %/*/`as` arithmetic on MERSENNE_P outside hindex-hashing::field"
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        for file in &ctx.ws.files {
            if !file.library || file.path == "crates/hashing/src/field.rs" {
                continue;
            }
            for (line, toks) in live_lines(file) {
                let mentions_p = toks.iter().any(|t| t.is_ident("MERSENNE_P"));
                let raw_op = toks
                    .iter()
                    .any(|t| t.is_punct('%') || t.is_punct('*') || t.is_ident("as"));
                if mentions_p && raw_op {
                    out.push(Finding::new(
                        "L1",
                        &file.path,
                        line,
                        &render(&toks),
                        "raw field arithmetic on MERSENNE_P outside hindex-hashing::field"
                            .to_string(),
                        Some(
                            "route through the checked helpers: from_u64 / from_i64 for \
                             canonicalisation, mersenne_mul / mersenne_reduce for products"
                                .to_string(),
                        ),
                    ));
                }
            }
        }
    }
}

/// L2 and L11 — a contract trait's implementors carry their companions.
///
/// One table ([`COVERAGE`]), one loop. Each row names the traits whose
/// non-test library impls it audits, and what every implementing type
/// `T` must also have:
///
/// * **L2 (space contract)** — an estimator type in
///   `crates/{core,sketch,baseline}` implements `SpaceUsage` and is
///   referenced from `tests/space_contracts.rs`, so the space bounds
///   of the paper's theorems stay pinned by tests;
/// * **L11 (snapshot)** — a `Mergeable` type implements `Snapshot`
///   (the engine checkpoints a shard by snapshotting it, and
///   `Snapshot::frame_digest` is the state digest the bit-identity
///   tests compare), and is referenced from `tests/merge_semantics.rs`
///   (merge-vs-concatenation law) and from `tests/snapshot_roundtrip.rs`
///   (round-trip law, corruption totality).
///
/// A missing companion is reported once per type and row, at the
/// type's first audited impl; a type under both rows is reported under
/// both. The impl inventory comes from the resolver, so generic
/// headers and `#[cfg(test)]` helper types are classified
/// structurally; a suite reference is the type's name appearing
/// anywhere in the suite file.
pub struct Coverage;

/// A companion every audited type must have.
enum Need {
    /// `impl <trait> for T` in non-test library code.
    Impl(&'static str),
    /// A mention of `T` in this test suite.
    Suite(&'static str),
}

/// One row of the coverage table.
struct Row {
    /// Lint id the row reports under.
    lint: &'static str,
    /// Traits whose implementors the row audits.
    traits: &'static [&'static str],
    /// Path prefixes of the audited crates (empty: every library crate).
    crates: &'static [&'static str],
    /// Each companion, with its baseline-key snippet suffix and its fix.
    needs: &'static [(Need, &'static str, &'static str)],
}

/// The coverage table: the paper's space theorems (L2) and the
/// engine's merge and checkpoint contracts (L11).
const COVERAGE: &[Row] = &[
    Row {
        lint: "L2",
        traits: &[
            "AggregateEstimator",
            "CashRegisterEstimator",
            "TurnstileEstimator",
        ],
        crates: &["crates/core/", "crates/sketch/", "crates/baseline/"],
        needs: &[
            (
                Need::Impl("SpaceUsage"),
                "missing SpaceUsage",
                "implement SpaceUsage reporting words of state",
            ),
            (
                Need::Suite("tests/space_contracts.rs"),
                "not in space_contracts",
                "add a sublinearity/space assertion to tests/space_contracts.rs",
            ),
        ],
    },
    Row {
        lint: "L11",
        traits: &["Mergeable"],
        crates: &[],
        needs: &[
            (
                Need::Impl("Snapshot"),
                "not persistable",
                "implement Snapshot (versioned frame, total decode)",
            ),
            (
                Need::Suite("tests/merge_semantics.rs"),
                "missing merge test",
                "add a split-stream merge-vs-concatenation test",
            ),
            (
                Need::Suite("tests/snapshot_roundtrip.rs"),
                "missing snapshot round-trip test",
                "add a round-trip + corruption case",
            ),
        ],
    },
];

impl crate::Lint for Coverage {
    fn id(&self) -> &'static str {
        "L2/L11"
    }
    fn summary(&self) -> &'static str {
        "estimators have SpaceUsage + a space_contracts test (L2); Mergeable types have \
         Snapshot, merge and round-trip tests (L11)"
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        let audited = |i: &&ImplInfo| ctx.ws.files[i.file].library && !i.in_test;
        for row in COVERAGE {
            let mut reported: HashSet<(&str, usize)> = HashSet::new();
            for imp in ctx.resolver.impls.iter().filter(audited) {
                let Some(tr) = imp.trait_name.as_deref().filter(|t| row.traits.contains(t)) else {
                    continue;
                };
                let file = &ctx.ws.files[imp.file];
                if !row.crates.is_empty() && !row.crates.iter().any(|c| file.path.starts_with(c)) {
                    continue;
                }
                let ty = imp.self_ty.as_str();
                for (n, (need, snippet, fix)) in row.needs.iter().enumerate() {
                    let (met, gap) = match need {
                        Need::Impl(companion) => (
                            ctx.resolver.impls.iter().filter(audited).any(|i| {
                                i.self_ty == ty && i.trait_name.as_deref() == Some(*companion)
                            }),
                            format!("has no `{companion}` impl"),
                        ),
                        Need::Suite(suite) => (
                            ctx.ws
                                .file(suite)
                                .is_some_and(|f| f.tokens.iter().any(|t| t.is_ident(ty))),
                            format!("is not referenced from {suite}"),
                        ),
                    };
                    if !met && reported.insert((ty, n)) {
                        out.push(Finding::new(
                            row.lint,
                            &file.path,
                            imp.line,
                            &format!("{ty} {snippet}"),
                            format!("`{tr}` impl for `{ty}` {gap}"),
                            Some((*fix).to_string()),
                        ));
                    }
                }
            }
        }
    }
}

/// L9 — no panic reachable from an estimator entry point.
///
/// The call-graph-aware successor to the retired token-only L3. Two
/// prongs, both scoped to library code outside test/gated items:
///
/// (a) **panic family** — `.unwrap()`, `.expect(…)`, and the `panic!`
/// / `unreachable!` / `todo!` / `unimplemented!` macros are flagged
/// anywhere in library code (estimators ingest adversarial streams;
/// failures must surface as `hindex-common::error` values). When the
/// containing function is reachable from an entry point (`ingest`,
/// `ingest_batch`, `merge`, `estimate`, `query*`), the diagnostic
/// carries the shortest call chain so the blast radius is explicit.
///
/// (b) **unguarded indexing** — `expr[idx]` inside a function
/// *reachable from an entry point* is flagged unless the index is
/// visibly in-range. Besides the direct forms (a literal or const
/// index, a `%`-/`&`-masked or `min`/`clamp`-bounded expression, a
/// container the function itself `resize`s, an index asserted in the
/// same body), the lint runs a small per-body *bounded-ident*
/// fixpoint: a local is bounded if it is defined from a masking or
/// clamping expression, a length, a right shift, a constant, one of
/// the workspace's bounded-contract APIs ([`BOUNDED_APIS`]), a
/// `for`-loop over such a range (or over a plain `self.field` range —
/// containers here are sized by the fields that bound their loops),
/// or an `enumerate` position. Idents compared in an `if`/`while`
/// condition count as guarded too. An index whose non-field idents
/// are all bounded or guarded is exempt; a bare field index
/// (`arr[self.pos]`) never is.
///
/// The graph is an over-approximation (unknown receivers dispatch to
/// every same-named method), so a reported chain is a *candidate*
/// path; absence of a report is the strong claim.
pub struct PanicReachability;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Entry-point verbs whose bodies start L9's reachability walk.
const ENTRY_NAMES: &[&str] = &["ingest", "ingest_batch", "merge", "estimate"];

fn is_entry(name: &str) -> bool {
    ENTRY_NAMES.contains(&name) || name.starts_with("query")
}

/// The innermost function (by body span) containing token `idx` of
/// file `file`.
fn fn_at(r: &Resolver, file: usize, idx: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (body.lo, fn id)
    for (id, f) in r.fns.iter().enumerate() {
        if f.file != file {
            continue;
        }
        let Some(b) = f.def.body else { continue };
        if b.contains(idx) && best.is_none_or(|(lo, _)| b.lo > lo) {
            best = Some((b.lo, id));
        }
    }
    best.map(|(_, id)| id)
}

/// Idents mentioned inside assert-family macro invocations within a
/// body span — treated as "guarded" index variables by prong (b).
fn asserted_idents(toks: &[Token], body: Span) -> HashSet<String> {
    const ASSERT_MACROS: &[&str] = &[
        "assert",
        "assert_eq",
        "assert_ne",
        "debug_assert",
        "debug_assert_eq",
        "debug_assert_ne",
        "debug_invariant",
    ];
    let mut out = HashSet::new();
    let mut k = body.lo;
    while k + 2 < body.hi.min(toks.len()) {
        if toks[k].kind == TokKind::Ident
            && ASSERT_MACROS.contains(&toks[k].text.as_str())
            && toks[k + 1].is_punct('!')
            && toks[k + 2].is_punct('(')
        {
            let close = matching_close(toks, k + 2, body.hi).unwrap_or(body.hi);
            for t in &toks[k + 2..close.min(toks.len())] {
                if t.kind == TokKind::Ident {
                    out.insert(t.text.clone());
                }
            }
            k = close;
        }
        k += 1;
    }
    out
}

/// An ALL_CAPS ident names a const — a compile-time-checked index.
fn is_const_ident(s: &str) -> bool {
    s.chars().any(|c| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Workspace APIs whose return value is bounded by contract: the
/// canonical hash-to-bucket mapper, the engine's shard router, and the
/// level-stack selectors all promise an in-range result. (The repo
/// owns these contracts; that is what makes a repo-specific lint able
/// to trust them.)
const BOUNDED_APIS: &[&str] = &["hash_to_range", "route", "level_of", "level_from_hash"];

/// Methods whose result is no larger than an operand or a container
/// length.
const BOUNDING_METHODS: &[&str] = &[
    "min",
    "clamp",
    "rem_euclid",
    "saturating_sub",
    "leading_zeros",
    "trailing_zeros",
    "len",
];

fn is_primitive_ty(s: &str) -> bool {
    matches!(
        s,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
            | "bool"
            | "char"
            | "str"
    )
}

/// True if the expression at `toks[lo..hi]` visibly produces a
/// bounded value: it masks (`%`, binary `&`, `>>`), clamps
/// ([`BOUNDING_METHODS`]), calls a bounded-contract API
/// ([`BOUNDED_APIS`]), names a const — or every non-field ident in it
/// is already in `known`. A pure-literal expression is bounded; an
/// expression made only of `self.field` paths is bounded only when
/// `field_range` is set (the `for i in 0..self.len_field` idiom —
/// containers here are sized by the fields that bound their loops).
fn expr_bounds(
    toks: &[Token],
    lo: usize,
    hi: usize,
    known: &HashSet<String>,
    field_range: bool,
) -> bool {
    let hi = hi.min(toks.len());
    if lo >= hi {
        return false;
    }
    let mut nonfield: Vec<&str> = Vec::new();
    let mut has_field = false;
    for i in lo..hi {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => {
                let binary_pos = i > lo
                    && (toks[i - 1].kind == TokKind::Ident
                        || toks[i - 1].kind == TokKind::Number
                        || toks[i - 1].is_punct(')')
                        || toks[i - 1].is_punct(']'));
                if t.is_punct('%') && binary_pos {
                    return true;
                }
                if t.is_punct('&')
                    && binary_pos
                    && !toks.get(i + 1).is_some_and(|n| n.is_punct('&'))
                {
                    return true;
                }
                if t.is_punct('>')
                    && binary_pos
                    && i + 1 < hi
                    && toks[i + 1].is_punct('>')
                {
                    return true;
                }
            }
            TokKind::Ident => {
                let s = t.text.as_str();
                if BOUNDING_METHODS.contains(&s)
                    || BOUNDED_APIS.contains(&s)
                    || is_const_ident(s)
                {
                    return true;
                }
                let is_macro = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
                if s == "self"
                    || is_primitive_ty(s)
                    || is_macro
                    || crate::callgraph::is_non_call_keyword(s)
                {
                    continue;
                }
                // A field-path component follows exactly one `.` — an
                // ident after `..` is a range endpoint, not a field.
                if i > 0
                    && toks[i - 1].is_punct('.')
                    && !(i > 1 && toks[i - 2].is_punct('.'))
                {
                    has_field = true;
                    continue;
                }
                nonfield.push(s);
            }
            _ => {}
        }
    }
    if !nonfield.is_empty() {
        nonfield.iter().all(|s| known.contains(*s))
    } else if has_field {
        field_range
    } else {
        true // literals and punctuation only
    }
}

/// Advances past a balanced-bracket region starting anywhere in a
/// statement, returning the index of the first depth-0 occurrence of
/// a stop punct (or `hi`).
fn scan_to(toks: &[Token], mut j: usize, hi: usize, stops: &[char]) -> usize {
    let mut depth = 0i64;
    while j < hi {
        let t = &toks[j];
        if depth == 0 && stops.iter().any(|&c| t.is_punct(c)) {
            return j;
        }
        bump_depth(t, &mut depth);
        j += 1;
    }
    hi
}

/// The per-body bounded-ident fixpoint backing L9's prong (b): which
/// locals are provably small enough to index with. See the lint doc
/// for the inference rules. Monotone (a later unbounded reassignment
/// does not retract an earlier bounded definition) — a deliberate
/// token-level approximation.
fn bounded_idents(toks: &[Token], body: Span) -> HashSet<String> {
    let hi = body.hi.min(toks.len());
    let mut bounded: HashSet<String> = HashSet::new();
    for _ in 0..8 {
        let before = bounded.len();
        let mut k = body.lo;
        while k < hi {
            let t = &toks[k];
            if t.kind != TokKind::Ident {
                // `(range).map(|i| …)` — the single closure parameter
                // of a combinator over a bounding parenthesized range.
                if t.is_punct('|') && k >= body.lo + 4 && toks[k - 1].is_punct('(') {
                    let close_bar = (k + 1..hi).find(|&j| toks[j].is_punct('|'));
                    let params: Vec<usize> = close_bar
                        .map(|cb| {
                            (k + 1..cb)
                                .filter(|&j| {
                                    toks[j].kind == TokKind::Ident
                                        && !matches!(
                                            toks[j].text.as_str(),
                                            "mut" | "ref" | "_" | "move"
                                        )
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    let m = k - 2; // the combinator ident
                    if params.len() == 1
                        && toks[m].kind == TokKind::Ident
                        && toks[m - 1].is_punct('.')
                        && toks[m - 2].is_punct(')')
                    {
                        if let Some(open) = matching_open(toks, m - 2, body.lo) {
                            if expr_bounds(toks, open + 1, m - 2, &bounded, true) {
                                bounded.insert(toks[params[0]].text.clone());
                            }
                        }
                    }
                }
                k += 1;
                continue;
            }
            match t.text.as_str() {
                "let" => {
                    // `let [mut] id [: ty] = rhs ;` — single-ident
                    // patterns only; destructurings stay unbounded.
                    let mut j = k + 1;
                    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    let Some(id) = toks.get(j).filter(|t| t.kind == TokKind::Ident)
                    else {
                        k += 1;
                        continue;
                    };
                    let name = id.text.clone();
                    j += 1;
                    if toks.get(j).is_some_and(|t| t.is_punct(':')) {
                        j = scan_to(toks, j + 1, hi, &['=', ';']);
                    }
                    if toks.get(j).is_some_and(|t| t.is_punct('=')) {
                        let end = scan_to(toks, j + 1, hi, &[';']);
                        if expr_bounds(toks, j + 1, end, &bounded, false) {
                            bounded.insert(name);
                        }
                        // Keep scanning from inside the initializer —
                        // it may contain closures and nested `let`s.
                        k = j;
                    }
                }
                "for" => {
                    // `for pat in range {` — a single-ident pattern
                    // over a bounding range, or the index half of an
                    // `enumerate` tuple.
                    let in_at = scan_to(toks, k + 1, hi, &['{', ';']);
                    let in_kw = (k + 1..in_at).find(|&j| toks[j].is_ident("in"));
                    let Some(in_kw) = in_kw else {
                        k += 1;
                        continue;
                    };
                    let open = scan_to(toks, in_kw + 1, hi, &['{']);
                    let pat: Vec<usize> = (k + 1..in_kw)
                        .filter(|&j| {
                            toks[j].kind == TokKind::Ident
                                && !matches!(toks[j].text.as_str(), "mut" | "ref" | "_")
                        })
                        .collect();
                    let range_enumerates = (in_kw + 1..open)
                        .any(|j| toks[j].is_ident("enumerate"));
                    if (pat.len() == 1
                        && expr_bounds(toks, in_kw + 1, open, &bounded, true))
                        || (pat.len() >= 2 && range_enumerates)
                    {
                        bounded.insert(toks[pat[0]].text.clone());
                    }
                    k = open;
                }
                "enumerate" => {
                    // `….enumerate().map(|(i, _)| …)` — the closure's
                    // first tuple element is a position.
                    let rest = &toks[k + 1..hi.min(k + 8)];
                    if rest.len() >= 7
                        && rest[0].is_punct('(')
                        && rest[1].is_punct(')')
                        && rest[2].is_punct('.')
                        && rest[3].kind == TokKind::Ident
                        && rest[4].is_punct('(')
                        && rest[5].is_punct('|')
                        && rest[6].is_punct('(')
                    {
                        if let Some(id) =
                            toks[k + 8..hi.min(k + 11)].iter().find(|t| {
                                t.kind == TokKind::Ident && !t.is_ident("mut")
                            })
                        {
                            bounded.insert(id.text.clone());
                        }
                    }
                }
                _ => {
                    // `id = rhs ;` / `id op= rhs ;` at statement
                    // position. Compound assignment keeps an already
                    // bounded ident bounded when the rhs is bounding.
                    let stmt_start = k == body.lo
                        || toks[k - 1].is_punct(';')
                        || toks[k - 1].is_punct('{')
                        || toks[k - 1].is_punct('}');
                    if !stmt_start {
                        k += 1;
                        continue;
                    }
                    let (assign_end, compound) = match toks.get(k + 1) {
                        Some(n) if n.is_punct('=')
                            && !toks.get(k + 2).is_some_and(|t| t.is_punct('=')) =>
                        {
                            (k + 1, false)
                        }
                        Some(n)
                            if n.kind == TokKind::Punct
                                && "+-*/%&|^".contains(n.text.as_str())
                                && toks.get(k + 2).is_some_and(|t| t.is_punct('=')) =>
                        {
                            (k + 2, true)
                        }
                        _ => {
                            k += 1;
                            continue;
                        }
                    };
                    let end = scan_to(toks, assign_end + 1, hi, &[';']);
                    if expr_bounds(toks, assign_end + 1, end, &bounded, false)
                        && (!compound || bounded.contains(&t.text))
                    {
                        bounded.insert(t.text.clone());
                    }
                    k = assign_end;
                }
            }
            k += 1;
        }
        if bounded.len() == before {
            break;
        }
    }
    bounded
}

/// Idents mentioned in an `if`/`while` condition that performs a
/// comparison — the body has visibly checked a bound involving them.
fn cmp_guarded_idents(toks: &[Token], body: Span) -> HashSet<String> {
    let hi = body.hi.min(toks.len());
    let mut out = HashSet::new();
    let mut k = body.lo;
    while k < hi {
        if !(toks[k].is_ident("if") || toks[k].is_ident("while")) {
            k += 1;
            continue;
        }
        let open = scan_to(toks, k + 1, hi, &['{']);
        let has_cmp = (k + 1..open).any(|j| {
            let t = &toks[j];
            (t.is_punct('<') || t.is_punct('>'))
                && !(j > 0 && (toks[j - 1].is_punct('-') || toks[j - 1].is_punct('=')))
        });
        if has_cmp {
            for t in &toks[k + 1..open] {
                if t.kind == TokKind::Ident {
                    out.insert(t.text.clone());
                }
            }
        }
        k = open + 1;
    }
    out
}

impl crate::Lint for PanicReachability {
    fn id(&self) -> &'static str {
        "L9"
    }
    fn summary(&self) -> &'static str {
        "no unwrap/expect/panic!-family or unguarded indexing reachable from ingest/merge/query"
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        let r = &ctx.resolver;
        let entries: Vec<usize> = r
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                ctx.ws.files[f.file].library
                    && !f.in_test
                    && !f.gated
                    && is_entry(&f.name)
            })
            .map(|(id, _)| id)
            .collect();
        let reach = ctx.graph.reach(&entries);

        // Prong (a): the panic family, everywhere in library code.
        for (file_idx, file) in ctx.ws.files.iter().enumerate() {
            if !file.library {
                continue;
            }
            let toks = &file.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident || file.in_test_code(t.line) {
                    continue;
                }
                let after_dot = i > 0 && toks[i - 1].is_punct('.');
                let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                let snippet = if after_dot && called && t.text == "unwrap" {
                    Some("unwrap()".to_string())
                } else if after_dot && called && t.text == "expect" {
                    Some(match toks.get(i + 2) {
                        Some(msg) if msg.kind == TokKind::Str => {
                            format!("expect(\"{}\")", msg.text)
                        }
                        _ => "expect(..)".to_string(),
                    })
                } else if PANIC_MACROS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                {
                    Some(format!("{}!", t.text))
                } else {
                    None
                };
                let Some(snippet) = snippet else { continue };
                let owner = fn_at(r, file_idx, i);
                if let Some(fid) = owner {
                    if r.fns[fid].in_test || r.fns[fid].gated {
                        continue;
                    }
                }
                let message = match owner {
                    Some(fid) if reach.contains_key(&fid) => format!(
                        "`{snippet}` can abort on adversarial input and is reachable \
                         from an estimator entry point: {}",
                        ctx.graph.chain(r, &reach, fid)
                    ),
                    _ => format!(
                        "`{snippet}` in library crate can abort on adversarial input"
                    ),
                };
                out.push(Finding::new(
                    "L9",
                    &file.path,
                    t.line,
                    &snippet,
                    message,
                    Some(
                        "return a hindex_common::error value (or degrade and assert the \
                         invariant via debug_invariant!); baseline only with justification"
                            .to_string(),
                    ),
                ));
            }
        }

        // Prong (b): unguarded indexing in reachable functions.
        let mut reachable: Vec<usize> = reach.keys().copied().collect();
        reachable.sort_unstable();
        for fid in reachable {
            let f = &r.fns[fid];
            if f.in_test || f.gated {
                continue;
            }
            let file = &ctx.ws.files[f.file];
            if !file.library {
                continue;
            }
            let Some(body) = f.def.body else { continue };
            let toks = &file.tokens;
            let body_idents = {
                let mut s = HashSet::new();
                for t in &toks[body.lo..body.hi.min(toks.len())] {
                    if t.kind == TokKind::Ident {
                        s.insert(t.text.as_str());
                    }
                }
                s
            };
            let resizes = body_idents.contains("resize") || body_idents.contains("resize_with");
            let mut known = bounded_idents(toks, body);
            known.extend(asserted_idents(toks, body));
            known.extend(cmp_guarded_idents(toks, body));
            let mut k = body.lo;
            while k < body.hi.min(toks.len()) {
                if !toks[k].is_punct('[') {
                    k += 1;
                    continue;
                }
                let indexable = k > body.lo
                    && (toks[k - 1].is_punct(')')
                        || toks[k - 1].is_punct(']')
                        || (toks[k - 1].kind == TokKind::Ident
                            && !crate::callgraph::is_non_call_keyword(&toks[k - 1].text)));
                if !indexable {
                    k += 1;
                    continue;
                }
                let close = match matching_close(toks, k, body.hi) {
                    Some(c) => c,
                    None => break,
                };
                let guarded = resizes || expr_bounds(toks, k + 1, close, &known, false);
                if !guarded {
                    let snippet = render_range(toks, k.saturating_sub(1), (close + 1).min(k + 11));
                    out.push(Finding::new(
                        "L9",
                        &file.path,
                        toks[k].line,
                        &format!("index {snippet}"),
                        format!(
                            "unguarded indexing `{snippet}` is reachable from an estimator \
                             entry point: {}",
                            ctx.graph.chain(r, &reach, fid)
                        ),
                        Some(
                            "use .get()/.get_mut() with an error path, mask or clamp the \
                             index, or assert the bound in the same body"
                                .to_string(),
                        ),
                    ));
                }
                k = close + 1;
            }
        }
    }
}

/// L10 — overflow-unsafe arithmetic on stream-derived integers.
///
/// Hash mixing and counter maintenance in `crates/hashing` and
/// `crates/core` run on adversarial 64-bit inputs, where a raw `+`,
/// `*`, or `<<` is a debug-build abort (and a silent wrap in release).
/// This lint runs a small intraprocedural taint pass per function:
///
/// * **sources** — parameters of `ingest`/`ingest_batch`, and any
///   `let` whose right-hand side mentions the field API
///   (`from_u64`, `mersenne_mul`, …) or an already-tainted local;
///   taint flows through closure parameters (when the receiver chain
///   root is tainted) and `for`-loop bindings (when the iterated
///   expression is tainted);
/// * **sinks** — raw `+`/`+=`, binary `*`, `<<`, and narrowing `as`
///   casts whose operands mention a tainted local;
/// * **exemptions** — a statement that widens to `u128`/`i128` or
///   floats, or that uses `wrapping_*`/`checked_*`/`saturating_*`/
///   `overflowing_*`; an additive literal bump (`x + 1`), which needs
///   ~2^64 operations to overflow; casts are additionally cleared by
///   `min`/`clamp`/`try_from`, a `%`/`&` mask, or an assert in the
///   same statement. Index-position arithmetic (inside `[…]`) is L9's
///   concern, not L10's.
///
/// `crates/hashing/src/field.rs` is exempt: it is the one place
/// allowed to implement the modular arithmetic the rest of the
/// workspace must call.
pub struct OverflowUnsafety;

/// The checked field-arithmetic vocabulary: values produced by these
/// are canonical field elements close to `2^61`, where a raw product
/// or sum overflows `u64`.
const FIELD_API: &[&str] = &[
    "from_u64",
    "from_i64",
    "mersenne_mul",
    "mersenne_add",
    "mersenne_reduce",
    "mersenne_pow",
    "pow",
];

/// Crates in scope for L10 (hashing + core arithmetic paths).
const L10_SCOPE: &[&str] = &["crates/hashing/", "crates/core/"];

/// Narrowing cast targets that can truncate or sign-wrap a 64-bit
/// stream value.
const NARROW_CASTS: &[&str] = &["i64", "i32", "i16", "i8", "u32", "u16", "u8"];

fn bump_depth(t: &Token, depth: &mut i64) {
    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
        *depth += 1;
    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
        *depth -= 1;
    }
}

fn is_tainted_name(name: &str, tainted: &HashSet<String>) -> bool {
    tainted.contains(name) || FIELD_API.contains(&name)
}

/// Walks left from a closure's opening `|` to the root identifier of
/// the receiver method chain (`signed.iter().map(|…` → `signed`).
fn receiver_root_tainted(
    toks: &[Token],
    body: Span,
    bar: usize,
    tainted: &HashSet<String>,
) -> bool {
    if bar == body.lo {
        return false;
    }
    let mut j = bar - 1;
    if !toks[j].is_punct('(') || j == body.lo {
        return false; // closure not in method-call position
    }
    j -= 1;
    let mut root: Option<&str> = None;
    loop {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            root = Some(&t.text);
        } else if t.is_punct(')') || t.is_punct(']') {
            match matching_open(toks, j, body.lo) {
                Some(open) if open > body.lo => j = open,
                _ => break,
            }
        } else if !t.is_punct('.') {
            break;
        }
        if j == body.lo {
            break;
        }
        j -= 1;
    }
    root.is_some_and(|r| is_tainted_name(r, tainted))
}

/// Computes the function's tainted-local set to a fixpoint.
fn l10_taint(f: &FnInfo, toks: &[Token]) -> HashSet<String> {
    let mut tainted: HashSet<String> = HashSet::new();
    if matches!(f.name.as_str(), "ingest" | "ingest_batch") {
        for p in &f.def.params {
            for n in &p.names {
                if n != "self" {
                    tainted.insert(n.clone());
                }
            }
        }
    }
    let Some(body) = f.def.body else {
        return tainted;
    };
    let hi = body.hi.min(toks.len());
    loop {
        let before = tainted.len();
        let mut i = body.lo;
        while i < hi {
            if toks[i].is_ident("let") {
                // Pattern idents up to the depth-0 `:` or `=`.
                let mut j = i + 1;
                let mut depth = 0i64;
                let mut pat: Vec<String> = Vec::new();
                while j < hi {
                    let t = &toks[j];
                    if depth == 0 && (t.is_punct(':') || t.is_punct('=') || t.is_punct(';')) {
                        break;
                    }
                    bump_depth(t, &mut depth);
                    if t.kind == TokKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                    {
                        pat.push(t.text.clone());
                    }
                    j += 1;
                }
                // Advance to the initialiser `=`.
                depth = 0;
                while j < hi {
                    let t = &toks[j];
                    if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
                        break;
                    }
                    bump_depth(t, &mut depth);
                    j += 1;
                }
                // Scan the right-hand side to the statement end.
                let mut rhs_tainted = false;
                depth = 0;
                while j < hi {
                    let t = &toks[j];
                    if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
                        break;
                    }
                    bump_depth(t, &mut depth);
                    if t.kind == TokKind::Ident && is_tainted_name(&t.text, &tainted) {
                        rhs_tainted = true;
                    }
                    j += 1;
                }
                if rhs_tainted {
                    tainted.extend(pat);
                }
                i = j;
            } else if toks[i].is_punct('|')
                && i > body.lo
                && toks[i - 1].is_punct('(')
            {
                // Closure in call position: `recv.method(|params| …)`.
                let mut params: Vec<String> = Vec::new();
                let mut j = i + 1;
                let mut steps = 0;
                while j < hi && steps < 32 && !toks[j].is_punct('|') {
                    let t = &toks[j];
                    if t.is_punct(';') || t.is_punct('{') {
                        break;
                    }
                    if t.kind == TokKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "_" | "move")
                    {
                        params.push(t.text.clone());
                    }
                    j += 1;
                    steps += 1;
                }
                if !params.is_empty() && receiver_root_tainted(toks, body, i, &tainted) {
                    tainted.extend(params);
                }
                i = j;
            } else if toks[i].is_ident("for") {
                // `for <pat> in <expr> {` — taint the bindings when the
                // iterated expression mentions a tainted value.
                let mut j = i + 1;
                let mut depth = 0i64;
                let mut pat: Vec<String> = Vec::new();
                let mut saw_in = false;
                while j < hi {
                    let t = &toks[j];
                    if depth == 0 && t.is_ident("in") {
                        saw_in = true;
                        break;
                    }
                    if t.is_punct('{') || t.is_punct(';') {
                        break; // `for<'a>` HRTB or malformed input
                    }
                    bump_depth(t, &mut depth);
                    if t.kind == TokKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                    {
                        pat.push(t.text.clone());
                    }
                    j += 1;
                }
                if saw_in {
                    j += 1;
                    let mut expr_tainted = false;
                    depth = 0;
                    while j < hi {
                        let t = &toks[j];
                        if depth == 0 && t.is_punct('{') {
                            break;
                        }
                        bump_depth(t, &mut depth);
                        if t.kind == TokKind::Ident && is_tainted_name(&t.text, &tainted) {
                            expr_tainted = true;
                        }
                        j += 1;
                    }
                    if expr_tainted {
                        tainted.extend(pat);
                    }
                }
                i = j;
            }
            i += 1;
        }
        if tainted.len() == before {
            break;
        }
    }
    tainted
}

/// Identifiers on the left operand side of the token at `op`.
fn operand_idents_left(toks: &[Token], body: Span, op: usize) -> Vec<&str> {
    let mut out = Vec::new();
    if op == body.lo {
        return out;
    }
    let mut j = op - 1;
    loop {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            if matches!(t.text.as_str(), "as" | "return" | "in") {
                break;
            }
            out.push(t.text.as_str());
        } else if t.is_punct(')') || t.is_punct(']') {
            match matching_open(toks, j, body.lo) {
                Some(open) => {
                    for u in &toks[open..=j] {
                        if u.kind == TokKind::Ident {
                            out.push(u.text.as_str());
                        }
                    }
                    j = open;
                }
                None => break,
            }
        } else if t.kind != TokKind::Number && !t.is_punct('.') {
            break;
        }
        if j == body.lo {
            break;
        }
        j -= 1;
    }
    out
}

/// Identifiers on the right operand side of the token at `op_end`
/// (the last token of the operator, for the two-token `<<`).
fn operand_idents_right(toks: &[Token], op_end: usize, hi: usize) -> Vec<&str> {
    let mut out = Vec::new();
    let mut j = op_end + 1;
    // Compound assignment (`+=`): skip the `=`.
    if toks.get(j).is_some_and(|t| t.is_punct('=')) {
        j += 1;
    }
    while j < hi.min(toks.len()) {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            if t.text == "as" {
                break;
            }
            out.push(t.text.as_str());
        } else if t.is_punct('(') {
            match matching_close(toks, j, hi) {
                Some(close) => {
                    for u in &toks[j..=close] {
                        if u.kind == TokKind::Ident {
                            out.push(u.text.as_str());
                        }
                    }
                    j = close;
                }
                None => break,
            }
        } else if t.kind != TokKind::Number
            && !t.is_punct('.')
            && !t.is_punct('&')
            && !t.is_punct('*')
            && !t.is_punct('-')
        {
            break;
        }
        j += 1;
    }
    out
}

/// The statement containing `at`: tokens between the nearest `;`/`{`/
/// `}` boundaries on either side.
fn stmt_bounds(toks: &[Token], body: Span, at: usize) -> (usize, usize) {
    let hi = body.hi.min(toks.len());
    let mut lo = at;
    while lo > body.lo {
        let t = &toks[lo - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        lo -= 1;
    }
    let mut end = at;
    while end < hi {
        let t = &toks[end];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        end += 1;
    }
    (lo, end)
}

/// True if a statement is overflow-safe by construction: widened to
/// 128-bit/float, or using the explicit-overflow method families.
fn overflow_exempt(stmt: &[Token]) -> bool {
    stmt.iter().any(|t| {
        t.kind == TokKind::Ident
            && (matches!(t.text.as_str(), "u128" | "i128" | "f64" | "f32")
                || t.text.starts_with("wrapping_")
                || t.text.starts_with("checked_")
                || t.text.starts_with("saturating_")
                || t.text.starts_with("overflowing_"))
    })
}

/// True if a narrowing cast's statement proves the value in range.
fn cast_exempt(stmt: &[Token]) -> bool {
    overflow_exempt(stmt)
        || stmt.iter().any(|t| {
            (t.kind == TokKind::Ident
                && (matches!(t.text.as_str(), "min" | "clamp" | "try_from")
                    || t.text.starts_with("assert")
                    || t.text.starts_with("debug_assert")
                    || t.text == "debug_invariant"))
                || t.is_punct('%')
                || t.is_punct('&')
        })
}

impl crate::Lint for OverflowUnsafety {
    fn id(&self) -> &'static str {
        "L10"
    }
    fn summary(&self) -> &'static str {
        "no raw +/*/<< or narrowing casts on stream-derived values in hashing/core"
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        for (file_idx, file) in ctx.ws.files.iter().enumerate() {
            if !file.library
                || !L10_SCOPE.iter().any(|p| file.path.starts_with(p))
                || file.path == "crates/hashing/src/field.rs"
            {
                continue;
            }
            let toks = &file.tokens;
            let mut seen: HashSet<(u32, String)> = HashSet::new();
            for f in &ctx.resolver.fns {
                if f.file != file_idx || f.in_test || f.gated {
                    continue;
                }
                let Some(body) = f.def.body else { continue };
                let tainted = l10_taint(f, toks);
                if tainted.is_empty() {
                    continue;
                }
                let hi = body.hi.min(toks.len());
                let mut bracket = 0i64;
                let mut k = body.lo;
                while k < hi {
                    let t = &toks[k];
                    if t.is_punct('[') {
                        bracket += 1;
                        k += 1;
                        continue;
                    }
                    if t.is_punct(']') {
                        bracket -= 1;
                        k += 1;
                        continue;
                    }
                    if bracket > 0 {
                        k += 1;
                        continue;
                    }
                    // Narrowing `as` cast on a tainted operand.
                    if t.is_ident("as") {
                        if toks.get(k + 1).is_some_and(|ty| {
                            ty.kind == TokKind::Ident
                                && NARROW_CASTS.contains(&ty.text.as_str())
                        }) {
                            let lhs = operand_idents_left(toks, body, k);
                            if lhs.iter().any(|s| is_tainted_name(s, &tainted)) {
                                let (slo, shi) = stmt_bounds(toks, body, k);
                                if !cast_exempt(&toks[slo..shi]) {
                                    let snippet = render_range(
                                        toks,
                                        k.saturating_sub(3).max(slo),
                                        (k + 2).min(shi),
                                    );
                                    if seen.insert((t.line, snippet.clone())) {
                                        out.push(Finding::new(
                                            "L10",
                                            &file.path,
                                            t.line,
                                            &snippet,
                                            format!(
                                                "narrowing cast `{snippet}` on a \
                                                 stream-derived value in `fn {}` can \
                                                 truncate or sign-wrap",
                                                f.name
                                            ),
                                            Some(
                                                "prove the range first (min/clamp/mask, \
                                                 try_from, or an assert in the same \
                                                 statement)"
                                                    .to_string(),
                                            ),
                                        ));
                                    }
                                }
                            }
                        }
                        k += 1;
                        continue;
                    }
                    let op: Option<(&str, usize)> = if t.is_punct('+') {
                        Some(("+", 1))
                    } else if t.is_punct('*')
                        && k > body.lo
                        && (toks[k - 1].kind == TokKind::Ident
                            || toks[k - 1].kind == TokKind::Number
                            || toks[k - 1].is_punct(')')
                            || toks[k - 1].is_punct(']'))
                    {
                        Some(("*", 1))
                    } else if t.is_punct('<')
                        && toks.get(k + 1).is_some_and(|n| n.is_punct('<'))
                    {
                        Some(("<<", 2))
                    } else {
                        None
                    };
                    let Some((opname, width)) = op else {
                        k += 1;
                        continue;
                    };
                    // An additive literal bump (`x + 1`, `count += 1`)
                    // overflows only after ~2^64 operations — not a
                    // reachable input budget; multiplication by a
                    // literal stays flagged (it can overflow at once).
                    if opname == "+" {
                        let mut j = k + 1;
                        if toks.get(j).is_some_and(|t| t.is_punct('=')) {
                            j += 1;
                        }
                        let literal_bump = toks
                            .get(j)
                            .is_some_and(|t| t.kind == TokKind::Number)
                            && toks.get(j + 1).is_none_or(|t| {
                                t.kind == TokKind::Punct
                                    && !t.is_punct('(')
                                    && !t.is_punct('.')
                            });
                        if literal_bump {
                            k += width;
                            continue;
                        }
                    }
                    let mut operands = operand_idents_left(toks, body, k);
                    operands.extend(operand_idents_right(toks, k + width - 1, hi));
                    if operands.iter().any(|s| is_tainted_name(s, &tainted)) {
                        let (slo, shi) = stmt_bounds(toks, body, k);
                        if !overflow_exempt(&toks[slo..shi]) {
                            let snippet = render_range(
                                toks,
                                k.saturating_sub(3).max(slo),
                                (k + width + 3).min(shi),
                            );
                            if seen.insert((t.line, snippet.clone())) {
                                out.push(Finding::new(
                                    "L10",
                                    &file.path,
                                    t.line,
                                    &snippet,
                                    format!(
                                        "raw `{opname}` on a stream-derived value in \
                                         `fn {}` can overflow on adversarial input",
                                        f.name
                                    ),
                                    Some(
                                        "use wrapping_*/checked_*/saturating_* or widen \
                                         to u128 for the intermediate"
                                            .to_string(),
                                    ),
                                ));
                            }
                        }
                    }
                    k += width;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            sources.iter().map(|(p, c)| ((*p).to_string(), (*c).to_string())).collect(),
        )
    }

    fn run_lint(lint: &dyn crate::Lint, ws: &Workspace) -> Vec<Finding> {
        let ctx = crate::Analysis::build(ws);
        let mut out = Vec::new();
        lint.run(&ctx, &mut out);
        out.sort_by_key(|f| f.line);
        out
    }

    #[test]
    fn l9_has_no_fault_module_exemption() {
        // The injected kill is baselined, not exempted in code: the
        // fault module's `panic!` and `unwrap()` lint like any other.
        let src = "fn seed() -> u64 { StdRng::seed_from_u64(0); 7 }\n\
                   fn helper(v: Option<u64>) -> u64 { v.unwrap() }\n\
                   pub fn detonate(msg: &str) -> ! { panic!(\"injected fault: {msg}\") }\n";
        let ws = ws(&[("crates/engine/src/faults.rs", src)]);
        let snippets: Vec<String> = run_lint(&PanicReachability, &ws)
            .into_iter()
            .map(|f| f.snippet)
            .collect();
        assert_eq!(snippets, ["unwrap()", "panic!"]);
    }

    #[test]
    fn l2_audits_estimator_impls_structurally() {
        let ws = ws(&[
            (
                "crates/sketch/src/x.rs",
                "impl AggregateEstimator for Good {}\n\
                 impl SpaceUsage for Good {}\n\
                 impl<T: Clone> CashRegisterEstimator for Bad<T> {}\n\
                 #[cfg(test)]\n\
                 mod tests { impl AggregateEstimator for TestOnly {} }\n",
            ),
            ("tests/space_contracts.rs", "fn t() { let _ = Good::default(); }\n"),
        ]);
        let findings = run_lint(&Coverage, &ws);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.message.contains("Bad")));
    }

    #[test]
    fn l9_reports_call_chain_for_reachable_panics() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "pub struct S { v: u64 }\n\
             impl S {\n\
               pub fn ingest(&mut self, x: u64) { self.step(x); }\n\
               fn step(&mut self, x: u64) { helper(x); }\n\
             }\n\
             fn helper(x: u64) { let _ = maybe(x).unwrap(); }\n\
             fn maybe(x: u64) -> Option<u64> { Some(x) }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { maybe(1).unwrap(); } }\n",
        )]);
        let findings = run_lint(&PanicReachability, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("ingest -> step -> helper"),
            "{findings:?}"
        );
    }

    #[test]
    fn l9_unreachable_panic_is_still_flagged_without_chain() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "fn orphan() { panic!(\"boom\"); }\n",
        )]);
        let findings = run_lint(&PanicReachability, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(!findings[0].message.contains("->"));
    }

    #[test]
    fn l9_flags_unguarded_indexing_in_reachable_fns_only() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "pub struct S { v: Vec<u64> }\n\
             impl S {\n\
               pub fn ingest(&mut self, i: usize) {\n\
                 let a = self.v[i];\n\
                 let b = self.v[i % self.v.len()];\n\
                 let c = self.v[3];\n\
                 let _ = (a, b, c);\n\
               }\n\
               pub fn unreached(&self, i: usize) -> u64 { self.v[i] }\n\
             }\n",
        )]);
        let findings = run_lint(&PanicReachability, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("unguarded indexing"));
    }

    #[test]
    fn l9_assert_in_body_guards_the_index() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "pub struct S { v: Vec<u64> }\n\
             impl S {\n\
               pub fn ingest(&mut self, i: usize) {\n\
                 debug_invariant!(i < self.v.len(), \"bound\");\n\
                 let _ = self.v[i];\n\
               }\n\
             }\n",
        )]);
        let findings = run_lint(&PanicReachability, &ws);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn l10_taints_field_api_locals_and_flags_raw_ops() {
        let ws = ws(&[(
            "crates/hashing/src/mix.rs",
            "pub fn mix(a: u64) -> u64 {\n\
               let x = from_u64(a);\n\
               let y = x * 3;\n\
               let safe = x.wrapping_mul(3);\n\
               let wide = u128::from(x) * 2;\n\
               let z = y ^ safe ^ (wide as u64);\n\
               z\n\
             }\n",
        )]);
        let findings = run_lint(&OverflowUnsafety, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("raw `*`"));
    }

    #[test]
    fn l10_flags_narrowing_casts_unless_proved() {
        let ws = ws(&[(
            "crates/core/src/c.rs",
            "pub struct S;\n\
             impl S {\n\
               pub fn ingest(&mut self, delta: u64) {\n\
                 let a = delta as i64;\n\
                 let b = delta.min(9) as i64;\n\
                 let _ = (a, b);\n\
               }\n\
             }\n",
        )]);
        let findings = run_lint(&OverflowUnsafety, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("narrowing cast"));
    }

    #[test]
    fn l10_is_scoped_to_hashing_and_core() {
        let ws = ws(&[(
            "crates/engine/src/x.rs",
            "pub fn ingest(v: u64) -> u64 { v + 1 }\n",
        )]);
        let findings = run_lint(&OverflowUnsafety, &ws);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn l11_requires_snapshot_and_both_suites() {
        let ws = ws(&[
            (
                "crates/core/src/x.rs",
                "impl Mergeable for Covered { fn merge(&mut self, o: &Self) {} }\n\
                 impl Snapshot for Covered {}\n\
                 impl Mergeable for Naked { fn merge(&mut self, o: &Self) {} }\n",
            ),
            (
                "tests/merge_semantics.rs",
                "fn t() { let _ = Covered::default(); }\n",
            ),
            (
                "tests/snapshot_roundtrip.rs",
                "fn t() { let _ = Covered::default(); }\n",
            ),
        ]);
        let findings = run_lint(&Coverage, &ws);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(
            findings
                .iter()
                .all(|f| f.lint == "L11" && f.snippet.contains("Naked")),
            "{findings:?}"
        );
    }

    #[test]
    fn coverage_rows_report_a_type_under_each_row() {
        // `Both` is an estimator and Mergeable with none of the
        // companions: the shared loop must not dedupe across rows.
        let ws = ws(&[(
            "crates/core/src/both.rs",
            "impl AggregateEstimator for Both {}\n\
             impl Mergeable for Both { fn merge(&mut self, o: &Self) {} }\n",
        )]);
        let findings = run_lint(&Coverage, &ws);
        let ids: Vec<(&str, u32)> = findings.iter().map(|f| (f.lint, f.line)).collect();
        assert_eq!(
            ids,
            [
                ("L2", 1),
                ("L2", 1),
                ("L11", 2),
                ("L11", 2),
                ("L11", 2)
            ],
            "{findings:?}"
        );
        assert!(findings.iter().all(|f| f.snippet.starts_with("Both ")));
    }
}
