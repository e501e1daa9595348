//! Whole-engine checkpoints: a serialisable frozen engine.

use crate::{EngineConfig, EngineError};
use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer, FRAME_OVERHEAD};
use hindex_obs::EngineObserver;
use std::sync::Arc;

/// A serialisable frozen engine: per-shard estimator states plus the
/// geometry and stream offset needed to resume ingestion exactly where
/// it stopped.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint<E> {
    pub(crate) config: EngineConfig,
    pub(crate) tick: u64,
    pub(crate) shards: Vec<E>,
}

impl<E> EngineCheckpoint<E> {
    /// The engine configuration the checkpoint was taken under.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Re-attaches an instrumentation sink before a
    /// [`ShardedEngine::restore`](crate::Shards::restore).
    /// Observers are never serialised (a decoded checkpoint carries
    /// none), so recovery paths call this to keep instrumenting across
    /// a crash boundary. The observer must be sized to the
    /// checkpoint's shard count — `restore` validates and rejects a
    /// mismatch.
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<EngineObserver>) -> Self {
        self.config.observer = Some(observer);
        self
    }

    /// Items the engine had routed when the checkpoint was taken;
    /// replay the input stream from this offset after a restore.
    #[must_use]
    pub fn stream_offset(&self) -> u64 {
        self.tick
    }

    /// The per-shard estimator states, in shard order.
    #[must_use]
    pub fn shard_states(&self) -> &[E] {
        &self.shards
    }

    /// The restore-side validation: geometry fields positive, one
    /// state per shard, and any re-attached observer sized to the
    /// shard count. Decoding already enforces the first two; this
    /// re-checks them so the spawn path can never panic on a
    /// checkpoint however it was obtained.
    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        self.config.validate()?;
        if self.shards.len() != self.config.shards {
            return Err(EngineError::InvalidConfig {
                what: "checkpoint shard-state count disagrees with its geometry",
            });
        }
        Ok(())
    }
}

/// Payload: the three geometry fields, the stream offset, and one
/// nested frame per shard state. Decode re-validates the constructor
/// invariants (all geometry fields positive, one state per shard), so
/// a restored checkpoint can never panic the spawn path.
impl<E: Snapshot> Snapshot for EngineCheckpoint<E> {
    const TAG: u8 = 22;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_usize(self.config.shards);
        w.put_usize(self.config.batch_size);
        w.put_usize(self.config.queue_depth);
        w.put_u64(self.tick);
        for shard in &self.shards {
            w.put_nested(shard);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let shards = r.get_usize()?;
        let batch_size = r.get_usize()?;
        let queue_depth = r.get_usize()?;
        if shards == 0 || batch_size == 0 || queue_depth == 0 {
            return Err(SnapshotError::Invalid("engine geometry fields must be positive"));
        }
        if shards > r.remaining() / FRAME_OVERHEAD {
            return Err(SnapshotError::Invalid("shard count larger than payload"));
        }
        let tick = r.get_u64()?;
        let mut states = Vec::with_capacity(shards);
        for _ in 0..shards {
            states.push(r.get_nested::<E>()?);
        }
        Ok(Self {
            // Neither the observer nor the publish cadence is part of
            // the binary format: both are runtime wiring a restorer
            // re-attaches (the format predates the read plane and
            // stays stable across it).
            config: EngineConfig {
                shards,
                batch_size,
                queue_depth,
                publish_interval: None,
                observer: None,
            },
            tick,
            shards: states,
        })
    }
}
