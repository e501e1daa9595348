//! Typed engine failures and the degraded/reporting result types.

use hindex_common::Guarantee;
use hindex_obs::MetricsSnapshot;

/// A shard failure the engine surfaces instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A worker thread died (panicked); its shard's updates are lost.
    /// Strict queries refuse to answer — use the `_degraded` variants
    /// to merge the surviving shards anyway.
    ShardDead {
        /// Index of the first dead shard found.
        shard: usize,
        /// The panic payload captured from the worker thread, when one
        /// was recoverable (a `&str`/`String` payload). `None` when the
        /// worker died without a diagnosable payload or the payload was
        /// not a string.
        reason: Option<String>,
    },
    /// Every worker thread died; not even a degraded answer exists.
    AllShardsDead,
    /// An [`EngineConfig`](crate::EngineConfig) failed validation at
    /// build time, or a checkpoint failed validation at restore time.
    InvalidConfig {
        /// What was wrong with the configuration.
        what: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ShardDead { shard, reason: Some(reason) } => {
                write!(f, "shard worker {shard} died (panicked: {reason}); its updates are lost")
            }
            EngineError::ShardDead { shard, reason: None } => {
                write!(f, "shard worker {shard} died; its updates are lost")
            }
            EngineError::AllShardsDead => write!(f, "every shard worker died"),
            EngineError::InvalidConfig { what } => {
                write!(f, "invalid engine configuration: {what}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Everything a caller at a reporting boundary (CLI, bench harness)
/// wants from one query, in one typed value: the estimate, the
/// approximation contract it was computed under, the space spent, how
/// degraded the answer is, and — when the engine is instrumented — a
/// full metrics snapshot. Produced by
/// the engine's [`report`](hindex_common::Engine::report) verb.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The merged H-index estimate.
    pub estimate: u64,
    /// The `(kind, ε, δ)` guarantee the estimator was built under, as
    /// supplied by the caller (`None` for exact baselines).
    pub approx_contract: Option<Guarantee>,
    /// Total pipeline space at query time, in words.
    pub space_words: usize,
    /// Dead shards whose updates are missing from `estimate` (empty
    /// for a lossless answer).
    pub degraded: Vec<usize>,
    /// The read-plane epoch this report was served from, when it came
    /// from a published view ([`ReadHandle::report`]); `None` for a
    /// fresh synchronous merge.
    ///
    /// [`ReadHandle::report`]: crate::ReadHandle::report
    pub epoch: Option<u64>,
    /// Items the stream had routed past this report's view when it was
    /// read. Always `0` for a fresh synchronous merge.
    pub staleness: u64,
    /// Metrics snapshot from the attached observer, if any.
    pub obs: Option<Box<MetricsSnapshot>>,
}

/// Best-effort string form of a worker thread's panic payload: `&str`
/// and `String` payloads (what `panic!`/`assert!` produce) are
/// recovered verbatim; anything else is reported as opaque so chaos
/// runs stay diagnosable without pretending to know more than we do.
#[must_use]
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_panic_payload() {
        let e = EngineError::ShardDead { shard: 3, reason: Some("poison update".into()) };
        assert_eq!(
            e.to_string(),
            "shard worker 3 died (panicked: poison update); its updates are lost"
        );
        assert_eq!(
            EngineError::ShardDead { shard: 1, reason: None }.to_string(),
            "shard worker 1 died; its updates are lost"
        );
    }

    #[test]
    fn panic_payloads_downcast() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u64);
        assert_eq!(panic_message(s.as_ref()), "<non-string panic payload>");
    }
}
