//! The paper's streaming H-index algorithms (PODS 2017).
//!
//! One module per algorithm, in paper order:
//!
//! | Module | Paper | Guarantee | Space (words) |
//! |---|---|---|---|
//! | [`exponential_histogram`] | Alg. 1, Thm 5 | deterministic `(1−ε)h* ≤ ĥ ≤ h*`, any order | `≤ 2ε⁻¹ ln n` |
//! | [`shifting_window`] | Alg. 2, Thm 6 | same | `O(ε⁻¹ log ε⁻¹)`, independent of `n` |
//! | [`random_order`] | Alg. 3+4, Thm 9 | `(1±ε)` whp on random-order streams | six words above the `β/ε` bar |
//! | [`cash_register`] | Alg. 5+6, Thm 14 | `(1±ε)` multiplicative with a lower bound, or `±ε·n` additive, whp | `poly(1/ε, log(1/δ), log n)` |
//! | [`one_heavy_hitter`] | Alg. 7, Thm 17 | detects a `(1−ε)`-dominant author | `O(ε⁻¹ log n + s·log n)` |
//! | [`heavy_hitters`] | Alg. 8, Thm 18 | all `ε`-heavy authors, `(1±ε)` their h | `O(ε⁻² log(1/εδ))` 1-HH instances |
//! | [`extensions`] | §5 | streaming g-index & α-index variants | `O(ε⁻¹ log n)` |
//! | [`sliding_window`] | §5 ("publication dates") | H-index of the last `W` papers | `O(ε⁻¹ ε_w⁻¹ log n log W)` |
//! | [`turnstile`] | footnote 1 (negative responses) | H-index with retractions, `±ε·D` whp | `poly(1/ε, log(1/δ), log n)` |
//!
//! Every estimator implements the traits from `hindex-common` and
//! reports word-accurate space so the experiment suite can check the
//! theorem bounds directly.

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

pub mod cash_register;
pub mod exponential_histogram;
pub mod extensions;
pub mod heavy_hitters;
pub mod one_heavy_hitter;
pub mod random_order;
pub mod shifting_window;
pub mod sliding_window;
pub mod timeline;
pub mod tracked_authors;
pub mod turnstile;

pub use cash_register::{CashRegisterHIndex, CashRegisterParams};
pub use exponential_histogram::ExponentialHistogram;
pub use extensions::{StreamingAlphaIndex, StreamingGIndex};
pub use heavy_hitters::{HeavyHitterCandidate, HeavyHitters, HeavyHittersParams};
pub use one_heavy_hitter::{OneHeavyHitter, OneHeavyHitterOutcome};
pub use random_order::{RandomOrderEstimator, RandomOrderParams};
pub use shifting_window::ShiftingWindow;
pub use sliding_window::SlidingHIndex;
pub use timeline::Timeline;
pub use tracked_authors::TrackedAuthorsAggregate;
pub use turnstile::TurnstileHIndex;

/// One-stop imports.
pub mod prelude {
    pub use crate::cash_register::{CashRegisterHIndex, CashRegisterParams};
    pub use crate::exponential_histogram::ExponentialHistogram;
    pub use crate::extensions::{StreamingAlphaIndex, StreamingGIndex};
    pub use crate::heavy_hitters::{HeavyHitterCandidate, HeavyHitters, HeavyHittersParams};
    pub use crate::one_heavy_hitter::{OneHeavyHitter, OneHeavyHitterOutcome};
    pub use crate::random_order::{RandomOrderEstimator, RandomOrderParams};
    pub use crate::shifting_window::ShiftingWindow;
    pub use crate::sliding_window::SlidingHIndex;
    pub use crate::timeline::Timeline;
    pub use crate::tracked_authors::TrackedAuthorsAggregate;
    pub use crate::turnstile::TurnstileHIndex;
}
