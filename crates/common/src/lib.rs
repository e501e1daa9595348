//! Foundational definitions for the `hindex` workspace.
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * the exact (offline) definition of the H-index and its relatives
//!   ([`h_index`], [`h_support`], [`variants`]),
//! * the estimator traits every streaming algorithm implements
//!   ([`traits::AggregateEstimator`], [`traits::CashRegisterEstimator`],
//!   [`traits::SpaceUsage`]),
//! * validated parameter newtypes ([`params::Epsilon`], [`params::Delta`]),
//! * the exponential threshold grid `(1+ε)^i` shared by most of the
//!   paper's algorithms ([`grid::ExpGrid`]),
//! * approximation-contract helpers used by tests and experiments
//!   ([`approx`]).
//!
//! The paper reproduced throughout the workspace is *"Streaming
//! Algorithms for Measuring H-Impact"* (Govindan, Monemizadeh,
//! Muthukrishnan; PODS 2017). Definition 1 of the paper is implemented
//! verbatim by [`h_index`].

#![deny(missing_docs)]

pub mod approx;
pub mod engine;
pub mod error;
pub mod grid;
pub mod hindex;
pub mod invariants;
pub mod params;
pub mod snapshot;
pub mod telemetry;
pub mod traits;
pub mod variants;

pub use approx::{ApproxKind, Guarantee};
pub use engine::{Degraded, Engine};
pub use error::{Error, Result};
pub use grid::ExpGrid;
pub use hindex::{h_index, h_support, IncrementalHIndex};
pub use params::{Delta, Epsilon};
pub use snapshot::{Snapshot, SnapshotError};
pub use telemetry::BankCounters;
pub use traits::{
    AggregateEstimator, CashRegisterEstimator, Estimate, EstimatorParams, Mergeable, SpaceUsage,
    TurnstileEstimator,
};
