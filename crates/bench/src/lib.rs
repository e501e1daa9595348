//! Experiment harness and benchmark support.
//!
//! The paper is theory-only (no tables or figures), so the evaluation
//! suite here is designed to validate every theorem empirically — see
//! `DESIGN.md` §4 for the experiment index (E1–E12) and
//! `EXPERIMENTS.md` for recorded results. Run with:
//!
//! ```sh
//! cargo run --release -p hindex-bench --bin experiments -- all
//! cargo run --release -p hindex-bench --bin experiments -- e3
//! ```
//!
//! Criterion throughput benches (experiment E10) live in
//! `benches/throughput.rs`: `cargo bench -p hindex-bench`.

#![deny(missing_docs)]

pub mod experiments;
pub(crate) mod stats;
pub(crate) mod table;
pub mod workloads;
