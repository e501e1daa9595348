//! Exact streaming baselines.
//!
//! The paper's opening observation: "If all the items can be stored,
//! H-index of a user can be computed by sorting." These are those
//! store-things baselines, instrumented with word-accurate space
//! accounting so the experiments can show exactly what the sketches
//! save:
//!
//! * [`FullStore`] — stores every aggregate value; `n` words.
//! * [`hindex_common::IncrementalHIndex`] — the tightest exact online
//!   algorithm: a min-heap of the current H-support, `h + O(1)` words.
//! * [`CashTable`] — exact cash-register baseline: a full
//!   paper → citation-count table plus a value-bucket array answering
//!   H-index queries in `O(h)`; `Θ(distinct papers)` words.
//! * [`AuthorTable`] — exact per-author H-indices over a paper stream;
//!   `Θ(Σ_a h*(a))` words. The exact analogue of §4's heavy-hitter
//!   mining.
//! * [`TurnstileTable`] — exact H-index with retractions (negative
//!   updates), the baseline for the turnstile extension.

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

pub mod author_table;
pub mod cash_table;
pub mod full_store;
pub mod turnstile_table;

pub use author_table::AuthorTable;
pub use cash_table::CashTable;
pub use full_store::FullStore;
pub use turnstile_table::TurnstileTable;
