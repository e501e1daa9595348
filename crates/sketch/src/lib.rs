//! Linear sketches and sampling primitives.
//!
//! These are the substrates the paper's cash-register algorithms stand
//! on (§2.4 and the citations of Theorem 14):
//!
//! * [`OneSparseRecovery`] — exact recovery of a 1-sparse vector from a
//!   three-word linear sketch (Ganguly's fingerprint construction);
//! * [`SparseRecovery`] — s-sparse recovery by hashing into `2s` columns
//!   of 1-sparse cells, with a whole-vector fingerprint verifying the
//!   decode;
//! * [`L0Sampler`] — Definition 3 / Lemma 4: samples a (near-)uniform
//!   non-zero coordinate *with its exact value*, built from geometric
//!   level sub-sampling over [`SparseRecovery`] (the
//!   Jowhari–Sağlam–Tardos construction the paper cites as \[9\]);
//! * [`Bjkst`] — `(1±ε, δ)` distinct-count (F₀) estimation, the "\[10\]"
//!   dependency of Algorithm 6;
//! * [`Kmv`] — bottom-k distinct-count cross-check;
//! * [`CountMin`] — classic frequency sketch, used by the experiments as
//!   the "traditional heavy hitters" baseline that Algorithm 8 is shown
//!   to improve on for H-index mining;
//! * [`Reservoir`] — uniform reservoir sampling, used by Algorithm 7's
//!   per-threshold paper samples;
//! * [`Dgim`] — sliding-window approximate counting
//!   (Datar–Gionis–Indyk–Motwani), the substrate for the recency
//!   extension `hindex-core::sliding_window`.
//!
//! All sketches are linear (mergeable) where the underlying mathematics
//! is, take explicit RNGs for reproducibility, and report their size in
//! words via [`hindex_common::SpaceUsage`].

#![deny(missing_docs)]

pub mod countmin;
pub mod dgim;
pub mod hyperloglog;
pub mod distinct;
pub mod l0;
pub mod misra_gries;
pub mod one_sparse;
pub mod reservoir;
pub mod sparse;

pub use countmin::CountMin;
pub use dgim::Dgim;
pub use hyperloglog::HyperLogLog;
pub use distinct::{Bjkst, DistinctCounter, Kmv};
pub use l0::{BankScratch, L0Norm, L0Sampler, L0SamplerParams};
pub use misra_gries::MisraGries;
pub use one_sparse::{OneSparseRecovery, Recovery};
pub use reservoir::Reservoir;
pub use sparse::SparseRecovery;
