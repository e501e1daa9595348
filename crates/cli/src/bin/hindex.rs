//! The `hindex` command-line tool. All logic lives in `hindex_cli`.

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

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdin = std::io::stdin().lock();
    match hindex_cli::run(&argv, &mut stdin) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("hindex: {msg}");
            ExitCode::FAILURE
        }
    }
}
