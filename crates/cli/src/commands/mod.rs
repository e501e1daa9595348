//! Subcommand implementations.

pub(crate) mod agg;
pub(crate) mod cash;
pub(crate) mod engine;
pub(crate) mod generate;
pub(crate) mod hh;
pub(crate) mod metrics;
pub(crate) mod snapshot;
