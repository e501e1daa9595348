//! Data model, stream models and synthetic workload generators.
//!
//! §2.2 of the paper fixes an *author / paper / citation* model: a paper
//! is a tuple `(p, a₁, …, a_y, c_p)` of its id, authors and citation
//! count. §2.3 defines the three stream models the algorithms consume:
//!
//! * **aggregate** — each paper's finished citation total appears once,
//!   in adversarial order;
//! * **random-order aggregate** — same elements, uniformly random order;
//! * **cash register** — a stream of updates `(p, z)` meaning paper `p`
//!   gained `z` citations.
//!
//! The paper proves guarantees but runs no experiments; this crate's
//! [`generator`] module builds the synthetic corpora the experiment
//! suite uses instead: heavy-tailed (Zipf/Pareto) citation counts —
//! matching the empirical distribution of real citation and retweet
//! data, and the "heavy-tail" premise of §4.2 — plus planted-H-index
//! and planted-heavy-hitter corpora where ground truth is controlled
//! exactly.

#![deny(missing_docs)]

pub mod career;
pub mod cash;
pub mod corpus;
pub mod generator;
pub mod model;
pub mod order;

pub use career::{CareerModel, CareerTrace};
pub use cash::{CashUpdate, Unaggregator};
pub use corpus::{Corpus, GroundTruth};
pub use generator::{CitationDist, CorpusGenerator, ProductivityDist};
pub use model::{AuthorId, Paper, PaperId};
pub use order::StreamOrder;

/// One-stop imports.
pub mod prelude {
    pub use crate::cash::{CashUpdate, Unaggregator};
    pub use crate::corpus::{Corpus, GroundTruth};
    pub use crate::generator::{CitationDist, CorpusGenerator, ProductivityDist};
    pub use crate::model::{AuthorId, Paper, PaperId};
    pub use crate::order::StreamOrder;
}
