//! `hindex-analysis`: a repo-specific static-analysis pass for the
//! hindex workspace.
//!
//! General-purpose tooling (rustc, clippy) cannot see the *project's*
//! invariants: that field arithmetic must go through the checked
//! helpers in `hindex-hashing::field`, that every estimator carries a
//! space contract and every mergeable type a digest, a snapshot and
//! its law tests, that no panic is reachable from a library ingest
//! path, and that stream-derived integers never meet unchecked
//! arithmetic. This crate encodes exactly those rules (L1, L2/L11, L9,
//! L10) over three synchronized views of each file — a hand-rolled
//! token stream ([`lexer`]), an item tree ([`parse`]/[`ast`]), and
//! workspace-wide symbol tables with a conservative call graph
//! ([`resolve`] / [`callgraph`]) — with zero external dependencies, so
//! the pass runs in the same offline environment as the rest of the
//! workspace. Rules that rustc, clippy or cargo can state themselves
//! live there instead (see `docs/ANALYSIS.md`).
//!
//! The binary (`cargo run -p hindex-analysis`) walks the repository,
//! applies every lint, subtracts the committed baseline of
//! grandfathered findings, and exits nonzero on anything new.
#![deny(missing_docs)]

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod resolve;
pub mod workspace;

use callgraph::CallGraph;
use resolve::Resolver;
use workspace::Workspace;

/// The shared analysis context handed to every lint: the workspace
/// plus the symbol tables and call graph derived from it, built once
/// per run.
pub struct Analysis<'ws> {
    /// The workspace under analysis.
    pub ws: &'ws Workspace,
    /// Flattened symbol tables (fns, impls, struct layouts).
    pub resolver: Resolver,
    /// Conservative whole-workspace call graph.
    pub graph: CallGraph,
}

impl<'ws> Analysis<'ws> {
    /// Builds the context over the whole workspace.
    #[must_use]
    pub fn build(ws: &'ws Workspace) -> Self {
        let resolver = Resolver::build(ws);
        let graph = CallGraph::build(ws, &resolver);
        Self { ws, resolver, graph }
    }
}

/// One diagnostic produced by a lint.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint identifier (`"L1"`, `"L2"`, `"L9"`, `"L10"`, `"L11"`).
    pub lint: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line the finding anchors to.
    pub line: u32,
    /// Human-readable statement of the problem.
    pub message: String,
    /// A `--fix`-style suggestion, where one is cheap to state.
    pub suggestion: Option<String>,
    /// Content-derived snippet used in the baseline key; stable under
    /// pure reformatting (it is rendered from tokens, not bytes) and
    /// under moving the code to a different line.
    pub snippet: String,
}

impl Finding {
    /// Builds a finding; the snippet is sanitised so baseline keys stay
    /// parseable (`|` and `#` are reserved by the baseline format).
    #[must_use]
    pub fn new(
        lint: &'static str,
        file: &str,
        line: u32,
        snippet: &str,
        message: String,
        suggestion: Option<String>,
    ) -> Self {
        let snippet: String = snippet
            .chars()
            .map(|c| match c {
                '|' => '!',
                '#' => '=',
                c if c.is_control() => ' ',
                c => c,
            })
            .take(72)
            .collect();
        Self {
            lint,
            file: file.to_string(),
            line,
            message,
            suggestion,
            snippet: snippet.trim().to_string(),
        }
    }

    /// The baseline key: `LINT|file|snippet`. Line numbers are
    /// deliberately excluded so baselined findings survive unrelated
    /// edits above them.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.lint, self.file, self.snippet)
    }
}

/// A single lint rule.
pub trait Lint {
    /// Stable identifier shown by `--list` (`"L1"`, `"L2/L11"`, …).
    fn id(&self) -> &'static str;
    /// One-line description for `--list` and documentation.
    fn summary(&self) -> &'static str;
    /// Runs the lint over the analysis context, appending findings.
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>);
}

/// The full lint registry, in catalogue order. Every lint sees the
/// whole workspace: L9 walks the call graph and L2/L11 correlate impls
/// with test suites, so no finding is a function of one file alone.
#[must_use]
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(lints::FieldArithmetic),
        Box::new(lints::Coverage),
        Box::new(lints::PanicReachability),
        Box::new(lints::OverflowUnsafety),
    ]
}

/// Builds the context, runs every lint, and returns the findings in
/// the canonical (file, line, lint) report order.
#[must_use]
pub fn run_lints(ws: &Workspace) -> Vec<Finding> {
    let ctx = Analysis::build(ws);
    let mut findings = Vec::new();
    for lint in all_lints() {
        lint.run(&ctx, &mut findings);
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint))
    });
    findings
}
