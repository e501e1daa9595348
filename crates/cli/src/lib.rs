//! `hindex` — command-line access to the streaming H-index algorithms.
//!
//! ```text
//! hindex agg   [--eps 0.1] [--algorithm window|histogram|random|heap|store] [--n N] [--delta 0.1] [--alpha A] [--window W] < counts.txt
//! hindex cash  [--eps 0.2] [--delta 0.1] [--algorithm sketch|exact] [--seed S] < updates.txt
//! hindex engine [--shards 4] [--batch 1024] [--eps 0.2] [--delta 0.1] [--algorithm sketch|exact] [--seed S] [--obs on] [--faults SPEC] [--supervise on] [--publish-interval N] [--fresh on] < updates.txt
//! hindex metrics [--shards 4] [--batch 64] [--n 10000] [--trace K] [< updates.txt]
//! hindex hh    [--eps 0.2] [--delta 0.1] [--seed S] [--threshold T] < papers.txt
//! hindex snapshot --out ckpt.bin [--cut K] [--shards 4] [--batch 1024] [--eps 0.2] [--delta 0.1] [--algorithm sketch|exact] [--seed S] < updates.txt
//! hindex restore  --in ckpt.bin < updates.txt
//! hindex gen   --kind zipf|planted|heavy [--n N] [--h H] [--exponent A] [--seed S]
//! ```
//!
//! Input formats (whitespace-separated, `#` comments and blank lines
//! ignored; [`io`] states the full line grammar):
//!
//! * `agg`  — one citation count per line;
//! * `cash` — `paper_id delta` per line;
//! * `hh`   — `paper_id author[,author…] citations` per line;
//! * `gen`  — writes one of the above to stdout.
//!
//! The binary is a thin wrapper over [`run`]; everything is testable
//! as a library.

#![deny(missing_docs)]
// Library lint set (docs/ANALYSIS.md): test builds are exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap
    )
)]

pub(crate) mod args;
pub(crate) mod commands;
pub mod io;

use std::io::Read;

/// Runs a full CLI invocation: parses `argv` (without the program
/// name), reads `input` if the command consumes a stream, and returns
/// the output text.
///
/// # Errors
///
/// Returns a human-readable message on bad usage or malformed input.
pub fn run(argv: &[String], input: &mut dyn Read) -> Result<String, String> {
    let parsed = args::Parsed::parse(argv)?;
    if let Some(accepted) = accepted_flags(&parsed.command) {
        parsed.reject_unknown(accepted)?;
    }
    match parsed.command.as_str() {
        "agg" => commands::agg::run(&parsed, input),
        "cash" => commands::cash::run(&parsed, input),
        "engine" => commands::engine::run(&parsed, input),
        "hh" => commands::hh::run(&parsed, input),
        "metrics" => commands::metrics::run(&parsed, input),
        "snapshot" => commands::snapshot::run_snapshot(&parsed, input),
        "restore" => commands::snapshot::run_restore(&parsed, input),
        "gen" => commands::generate::run(&parsed),
        "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// The flags each command reads (`None` for `help` and unknown
/// commands). Any other flag is a usage error, raised before the
/// command reads stdin or touches a file.
fn accepted_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "agg" => &["eps", "algorithm", "delta", "n", "alpha", "window"],
        "cash" => &["eps", "delta", "algorithm", "seed"],
        "engine" => &[
            "shards",
            "batch",
            "eps",
            "delta",
            "algorithm",
            "seed",
            "obs",
            "supervise",
            "faults",
            "ckpt-interval",
            "max-restarts",
            "replay-words",
            "publish-interval",
            "fresh",
        ],
        "metrics" => &["shards", "batch", "n", "trace"],
        "hh" => &["eps", "delta", "seed", "threshold"],
        "snapshot" => &["out", "cut", "shards", "batch", "eps", "delta", "algorithm", "seed"],
        "restore" => &["in"],
        "gen" => &["kind", "n", "h", "exponent", "seed"],
        _ => return None,
    })
}

/// The usage text.
#[must_use]
pub(crate) fn usage() -> &'static str {
    "usage: hindex <command> [flags]\n\
     commands:\n\
       agg    estimate the H-index of an aggregate stream (one count per line)\n\
              --eps E (0.1)  --algorithm window|histogram|random|heap|store|g|alpha|sliding\n\
              --n N, --delta D (0.1) (for random)  --alpha A (for alpha)\n\
              --window W (for sliding)\n\
       cash   estimate from a cash-register update stream (`paper delta` lines)\n\
              --eps E (0.2)  --delta D (0.1)  --algorithm sketch|exact (sketch)  --seed S (0)\n\
       engine sharded parallel ingestion of a cash-register stream\n\
              --shards S (4)  --batch B (1024)  --eps E (0.2)  --delta D (0.1)\n\
              --algorithm sketch|exact (sketch)  --seed S (0)  --obs on|off (off)\n\
              --supervise on (self-healing engine)  --faults SPEC (implies supervise;\n\
              SPEC = kill@T:S | fail@T:S=K | stall@T:S=MS | sweep@T=STRIDE\n\
              | rand=N@SEED, comma-separated)  --ckpt-interval N (4)\n\
              --max-restarts R (8)  --replay-words W (1048576)\n\
              --publish-interval N (0: off; answer from the read plane,\n\
              publishing a merged view every N items)  --fresh on (force a\n\
              synchronous merge even when a read plane is attached)\n\
       metrics run an instrumented engine, print Prometheus-style metrics\n\
              --shards S (4)  --batch B (64)  --n N (10000, when stdin is empty)\n\
              --trace K (0: append the last K trace events)\n\
       hh     find heavy hitters in H-index (`paper authors citations` lines)\n\
              --eps E (0.2)  --delta D (0.1)  --seed S (0)  --threshold T (auto)\n\
       snapshot  ingest a prefix of a cash-register stream, write a checkpoint\n\
              --out FILE  --cut K (whole stream)  --shards S (4)  --batch B (1024)\n\
              --eps E (0.2)  --delta D (0.1)  --algorithm sketch|exact (sketch)  --seed S (0)\n\
       restore   resume from a checkpoint, replay the stream from its offset\n\
              --in FILE (the estimator kind is read from the checkpoint)\n\
       gen    generate synthetic streams\n\
              --kind zipf|planted|heavy  --n N (1000)  --h H (100)\n\
              --exponent A (2.0)  --seed S (0)\n\
       help   show this message\n\
     input: one record per line, `#` starts a comment; the full line grammar\n\
            is in the module doc of crates/cli/src/io.rs"
}

/// Test helper: run with string input.
///
/// # Errors
///
/// Propagates [`run`] errors.
#[cfg(test)]
pub(crate) fn run_str(argv: &[&str], input: &str) -> Result<String, String> {
    let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
    let mut cursor = std::io::Cursor::new(input.as_bytes().to_vec());
    run(&argv, &mut cursor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"], "").unwrap();
        assert!(out.contains("usage: hindex"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run_str(&["frobnicate"], "").unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn empty_argv_errors() {
        let err = run_str(&[], "").unwrap_err();
        assert!(err.contains("usage"));
    }

    /// Input that must never be read.
    struct Unread;

    impl Read for Unread {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            panic!("stdin was read before the flags were checked");
        }
    }

    #[test]
    fn unknown_flags_are_named_before_input_is_read() {
        for (argv, flag) in [
            (["engine", "--shard", "8"], "`--shard`"),
            (["agg", "--algoritm", "heap"], "`--algoritm`"),
        ] {
            let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
            let err = run(&argv, &mut Unread).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn cash_register_commands_reject_negative_deltas() {
        for argv in [
            &["engine", "--algorithm", "exact"][..],
            &["snapshot", "--algorithm", "exact", "--out", "/dev/null"],
            &["restore", "--in", "/dev/null"],
            &["metrics"],
        ] {
            let err = run_str(argv, "1 5\n2 -1\n3 2\n").unwrap_err();
            let want = format!("{} ingests cash-register streams only", argv[0]);
            assert!(err.starts_with(&want), "{err}");
        }
    }

    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        // A usage line opens a command's section when its first word is
        // a command; the flags on it and on the lines below belong there.
        let mut listed: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in usage().lines().skip(2) {
            let first = line.split_whitespace().next().unwrap_or_default();
            if accepted_flags(first).is_some() || first == "help" {
                listed.push((first, Vec::new()));
            }
            let flags = &mut listed.last_mut().unwrap().1;
            flags.extend(
                line.split_whitespace()
                    .filter_map(|w| w.strip_prefix("--"))
                    .map(|w| w.trim_end_matches([',', ';', ')'])),
            );
        }
        for (command, mut flags) in listed {
            flags.sort_unstable();
            flags.dedup();
            let mut accepted = accepted_flags(command).unwrap_or_default().to_vec();
            accepted.sort_unstable();
            assert_eq!(flags, accepted, "`{command}`");
        }
    }
}
