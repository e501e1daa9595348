//! # hindex — Streaming Algorithms for Measuring H-Impact
//!
//! Facade crate re-exporting the whole workspace. See the individual
//! crates for details:
//!
//! * [`hindex_common`] (re-exported as [`common`]) — definitions, exact
//!   algorithms, traits;
//! * [`hindex_hashing`] ([`hashing`]) — k-wise independent hash families;
//! * [`hindex_sketch`] ([`sketch`]) — ℓ₀-samplers, sparse recovery,
//!   distinct-count estimators;
//! * [`hindex_stream`] ([`stream`]) — data model, stream models,
//!   synthetic corpus generators;
//! * [`hindex_baseline`] ([`baseline`]) — exact streaming baselines;
//! * [`hindex_core`] ([`core`]) — the paper's algorithms (Algorithms
//!   1–8 of PODS'17);
//! * [`hindex_engine`] ([`engine`]) — sharded, batched, multi-threaded
//!   ingestion over any mergeable estimator.
//!
//! ## Quickstart
//!
//! ```
//! use hindex::prelude::*;
//!
//! // Aggregate model: a stream of per-paper citation totals.
//! let eps = Epsilon::new(0.1).unwrap();
//! let mut sketch = ShiftingWindow::new(eps);
//! for citations in [12u64, 40, 3, 9, 27, 5, 11, 8, 19, 2] {
//!     sketch.ingest(citations);
//! }
//! let estimate = sketch.estimate();
//! let truth = h_index(&[12, 40, 3, 9, 27, 5, 11, 8, 19, 2]);
//! assert!(estimate <= truth && (estimate as f64) >= (1.0 - 0.1) * truth as f64);
//! ```

#![deny(missing_docs)]

pub mod quick;

pub use hindex_baseline as baseline;
pub use hindex_common as common;
pub use hindex_core as core;
pub use hindex_engine as engine;
pub use hindex_hashing as hashing;
pub use hindex_obs as obs;
pub use hindex_sketch as sketch;
pub use hindex_stream as stream;

/// One-stop imports for applications.
pub mod prelude {
    pub use hindex_common::{AggregateEstimator, CashRegisterEstimator, Delta, Epsilon, Estimate, EstimatorParams, IncrementalHIndex, Mergeable, SpaceUsage, TurnstileEstimator, h_index, h_support};
    pub use hindex_core::prelude::*;
    pub use hindex_engine::{
        BatchIngest, Degraded, Engine, EngineCheckpoint, EngineConfig, EngineError, FaultKind,
        FaultPlan, QueryReport, ReadHandle, ReadView, Routable, ShardedEngine, SupervisedEngine,
        SupervisorConfig,
    };
    pub use hindex_obs::{EngineObserver, Event, EventKind, MetricsSnapshot, Tracer};
    pub use hindex_stream::prelude::*;
}
