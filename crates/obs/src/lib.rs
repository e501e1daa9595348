//! Self-hosted observability for the hindex stack.
//!
//! The estimators in this workspace exist to measure streams cheaply;
//! this crate turns the same machinery on the system itself:
//!
//! * [`metrics`] — atomically updated `Counter`s, `Gauge`s, and a
//!   fixed-boundary `LatencyHistogram` with quantile queries;
//! * `rate` — a `RateMeter` whose sliding window is the
//!   workspace's own DGIM sketch ([`hindex_sketch::Dgim`]), and batch
//!   size statistics summarised by Algorithm 1's exponential
//!   histogram ([`hindex_core::ExponentialHistogram`]) — the reported
//!   "batch h-index" is literally the H-index of the batch-size
//!   stream;
//! * [`trace`] — a bounded ring-buffer [`Tracer`] of structured
//!   [`Event`]s stamped with *logical* time, so identical seeded runs
//!   produce identical traces;
//! * [`clock`] — the **only** module in the library stack allowed to
//!   time with the wall clock (`clippy.toml` bans it elsewhere); every
//!   wall-time measurement flows through its [`Stopwatch`];
//! * [`observer`] — [`EngineObserver`], the hook object the sharded
//!   engine drives, plus [`MetricsSnapshot`] and its Prometheus-style
//!   [`MetricsSnapshot::render_text`] exposition.
//!
//! # Determinism contract
//!
//! Everything except wall-clock durations is a pure function of the
//! hook-call sequence: counters, gauges, batch statistics, and the
//! event stream (kinds, logical ticks, shard ids, values) replay
//! bit-identically across runs with the same seed and schedule. Only
//! `*_ns` latency figures vary run to run, and they are quarantined in
//! `LatencyHistogram`s that the determinism tests ignore.

#![deny(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod observer;
pub(crate) mod rate;
pub mod trace;

pub use clock::Stopwatch;
pub use metrics::LatencySummary;
pub use observer::{EngineObserver, MetricsSnapshot};
pub use trace::{Event, EventKind, Tracer};

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard from a poisoned lock.
///
/// Observability state is monotone (counters, ring buffers): a panic
/// in some other thread holding the lock cannot leave it in a state
/// worse than "slightly stale", so recovering is always safe and keeps
/// the no-panic contract of the library stack (lint L9).
pub(crate) fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
