//! CLI driver for the hindex workspace lint pass.
//!
//! ```text
//! cargo run -p hindex-analysis                  # lint the repo; exit 1 on anything new
//! cargo run -p hindex-analysis -- --list        # print the lint catalogue
//! ```

use hindex_analysis::baseline::{apply, Baseline};
use hindex_analysis::workspace::Workspace;
use hindex_analysis::{all_lints, run_lints};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
hindex-analysis: repo-specific lint pass for the hindex workspace

USAGE:
    hindex-analysis [OPTIONS]

OPTIONS:
    --root <DIR>    Repository root to analyse (default: .)
    --list          Print the lint catalogue and exit
    --help          Show this help

Subtracts the baseline at <root>/crates/analysis/baseline.txt and exits
nonzero on any new finding, any baseline entry without a justification,
and any stale entry (a key that no longer matches a finding must be
deleted, not carried).

See docs/ANALYSIS.md for lint rationale and the baseline policy.";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("error: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--list" => list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if list {
        println!("hindex-analysis lint catalogue:");
        for lint in all_lints() {
            println!("  {:<6} {}", lint.id(), lint.summary());
        }
        return ExitCode::SUCCESS;
    }

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: cannot read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let baseline_path = root.join("crates/analysis/baseline.txt");
    let baseline = std::fs::read_to_string(&baseline_path)
        .map(|text| Baseline::parse(&text))
        .unwrap_or_default();
    let applied = apply(&baseline, run_lints(&ws));

    for f in &applied.new {
        println!("{}:{}: [{}] {}", f.file, f.line, f.lint, f.message);
        if let Some(s) = &f.suggestion {
            println!("    suggestion: {s}");
        }
        println!("    baseline key: {}", f.key());
    }
    for e in &applied.stale {
        eprintln!(
            "error: baseline entry at {}:{} matches no finding — remove stale suppression: {}",
            baseline_path.display(),
            e.line,
            e.key
        );
    }
    for e in &applied.unjustified {
        eprintln!(
            "error: baseline entry at {}:{} has no justification (append ` # why`): {}",
            baseline_path.display(),
            e.line,
            e.key
        );
    }
    println!(
        "hindex-analysis: {} file(s), {} new finding(s), {} baselined, {} stale entr(ies)",
        ws.files.len(),
        applied.new.len(),
        applied.silenced,
        applied.stale.len(),
    );

    if applied.new.is_empty() && applied.stale.is_empty() && applied.unjustified.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
