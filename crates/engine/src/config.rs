//! Engine geometry, the validated builder, and the supervision knobs.

use crate::EngineError;
use hindex_obs::EngineObserver;
use std::sync::Arc;

/// Engine geometry plus optional instrumentation.
///
/// Construct via [`EngineConfig::builder`] (validated, and the only
/// way to attach an [`EngineObserver`]), [`EngineConfig::with_shards`]
/// for default batching, or [`EngineConfig::default`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker shards (threads). Must be ≥ 1.
    pub shards: usize,
    /// Items per batch handed to a worker. Must be ≥ 1.
    pub batch_size: usize,
    /// Batches in flight per shard before ingestion blocks
    /// (backpressure). Must be ≥ 1.
    pub queue_depth: usize,
    /// Read-plane publish cadence: every this many routed items the
    /// engine publishes an epoch view to its
    /// [`ReadHandle`](crate::ReadHandle)s. `None` (the default)
    /// disables the read plane entirely; `Some(0)` is invalid.
    pub publish_interval: Option<u64>,
    /// Instrumentation sink driven by the engine's router thread;
    /// `None` leaves every hot path a branch-on-`None`.
    pub(crate) observer: Option<Arc<EngineObserver>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            batch_size: 1024,
            queue_depth: 4,
            publish_interval: None,
            observer: None,
        }
    }
}

impl EngineConfig {
    /// Config with `shards` workers and default batching.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    /// Starts a validated builder at the default geometry.
    #[must_use]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// This config with `observer` attached (see
    /// [`EngineConfigBuilder::observer`] for the sizing contract,
    /// which [`EngineConfigBuilder::build`] enforces).
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<EngineObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The attached instrumentation sink, if any.
    #[must_use]
    pub fn observer(&self) -> Option<&Arc<EngineObserver>> {
        self.observer.as_ref()
    }

    /// The builder's validation, shared with the restore path: every
    /// geometry field positive and the observer (if any) sized to the
    /// shard count.
    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        if self.shards == 0 {
            return Err(EngineError::InvalidConfig {
                what: "shards must be ≥ 1 (need at least one shard)",
            });
        }
        if self.batch_size == 0 {
            return Err(EngineError::InvalidConfig { what: "batch_size must be ≥ 1" });
        }
        if self.queue_depth == 0 {
            return Err(EngineError::InvalidConfig { what: "queue_depth must be ≥ 1" });
        }
        if self.publish_interval == Some(0) {
            return Err(EngineError::InvalidConfig {
                what: "publish_interval must be ≥ 1 when set",
            });
        }
        if let Some(o) = &self.observer {
            if o.shards() != self.shards {
                return Err(EngineError::InvalidConfig {
                    what: "observer sized for a different shard count",
                });
            }
        }
        Ok(())
    }
}

/// Validated constructor for [`EngineConfig`].
///
/// ```
/// use hindex_engine::EngineConfig;
/// use hindex_obs::EngineObserver;
/// use std::sync::Arc;
///
/// let obs = Arc::new(EngineObserver::new(8));
/// let config = EngineConfig::builder()
///     .shards(8)
///     .batch(256)
///     .observer(obs)
///     .build()
///     .unwrap();
/// assert_eq!(config.shards, 8);
/// assert!(EngineConfig::builder().shards(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the number of worker shards.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the items-per-batch handed to workers.
    #[must_use]
    pub fn batch(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Sets the per-shard bounded-channel depth (backpressure).
    #[must_use]
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.config.queue_depth = queue_depth;
        self
    }

    /// Enables the read plane: publish an epoch view every `interval`
    /// routed items (see [`Shards::read_handle`]). Must be ≥ 1 or
    /// [`Self::build`] rejects the config.
    ///
    /// [`Shards::read_handle`]: crate::Shards::read_handle
    #[must_use]
    pub fn publish_interval(mut self, interval: u64) -> Self {
        self.config.publish_interval = Some(interval);
        self
    }

    /// Attaches an instrumentation sink. It must be sized to the same
    /// shard count ([`EngineObserver::new`]) or [`Self::build`]
    /// rejects the config.
    #[must_use]
    pub fn observer(mut self, observer: Arc<EngineObserver>) -> Self {
        self.config.observer = Some(observer);
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] when any geometry field
    /// is zero or the observer's shard count disagrees with
    /// [`EngineConfig::shards`].
    pub fn build(self) -> Result<EngineConfig, EngineError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Knobs of the self-healing engine (see [`crate::SupervisedEngine`]).
///
/// The defaults favour cheap steady-state operation: a recovery cut
/// every 4 batches, a 1 Mi-word replay budget per shard, 4 restarts per
/// shard before the engine gives the shard up, and no backoff (so
/// deterministic tests run at full speed — production chaos runs set
/// `backoff_ms`). A `max_restarts` of 0 is the fail-hard policy
/// [`crate::ShardedEngine::new`] builds: no recovery cuts, no replay
/// log, and the first death is terminal.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Logged batches between per-shard recovery cuts. Must be ≥ 1.
    /// Each worker's first command is also a cut, so a restart always
    /// has a base; a healed worker keeps the cadence of the lineage it
    /// replaces. Each cut clones the shard state on the worker thread,
    /// so a lower interval means a shorter replay and more cloning.
    pub checkpoint_interval: u64,
    /// Per-shard replay-log budget, in words. When the log outgrows
    /// the budget its oldest batches are evicted; until the next
    /// recovery base covers the eviction point the shard is honestly
    /// *unrecoverable* — a crash then is terminal, never a silently
    /// wrong answer.
    pub max_replay_words: usize,
    /// Restarts per shard before the engine declares it dead. `0`
    /// turns supervision off (the other knobs then go unused).
    pub max_restarts: u32,
    /// Base backoff before a restart, in milliseconds; doubles per
    /// consecutive restart of the same shard (capped at 64×). `0`
    /// disables backoff.
    pub backoff_ms: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval: 4,
            max_replay_words: 1 << 20,
            max_restarts: 4,
            backoff_ms: 0,
        }
    }
}

impl SupervisorConfig {
    /// Validates the supervision knobs.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] when the checkpoint
    /// interval or replay budget is zero.
    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        if self.checkpoint_interval == 0 {
            return Err(EngineError::InvalidConfig {
                what: "checkpoint_interval must be ≥ 1",
            });
        }
        if self.max_replay_words == 0 {
            return Err(EngineError::InvalidConfig {
                what: "max_replay_words must be ≥ 1",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_geometry_and_observer() {
        assert!(EngineConfig::builder().shards(0).build().is_err());
        assert!(EngineConfig::builder().batch(0).build().is_err());
        assert!(EngineConfig::builder().queue_depth(0).build().is_err());
        let err = EngineConfig::builder()
            .shards(4)
            .observer(Arc::new(EngineObserver::new(2)))
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig { .. }));
    }

    #[test]
    fn publish_interval_zero_is_rejected() {
        assert!(EngineConfig::builder().publish_interval(0).build().is_err());
        let config = EngineConfig::builder().publish_interval(512).build().unwrap();
        assert_eq!(config.publish_interval, Some(512));
        assert_eq!(EngineConfig::default().publish_interval, None);
    }

    #[test]
    fn supervisor_config_validates() {
        assert!(SupervisorConfig::default().validate().is_ok());
        let bad = SupervisorConfig { checkpoint_interval: 0, ..SupervisorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = SupervisorConfig { max_replay_words: 0, ..SupervisorConfig::default() };
        assert!(bad.validate().is_err());
    }
}
