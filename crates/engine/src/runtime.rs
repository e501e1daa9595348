//! The shard-runtime core: the one worker loop, its command set, and
//! worker spawn plumbing.
//!
//! The engine ([`Shards`](crate::Shards), under either name) decides
//! *when* workers spawn, die, and respawn; the runtime defines *what a
//! worker is*. There is exactly one worker loop in the crate —
//! supervision enters through the [`WorkerCtx::on_applied`] hook (the
//! micro-checkpoint frames, absent under a zero restart budget), and
//! the read plane's shard views flow out through [`WorkerCtx::views`].

use crate::faults;
use crate::read_plane::ShardView;
use crate::BatchIngest;
use hindex_common::Mergeable;
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

/// Commands a shard worker understands: `Batch`/`Snapshot`/`Publish`
/// carry the stream and the queries; stalls and poisons exist only for
/// fault injection.
pub(crate) enum Command<E, T> {
    /// Apply one batch of items.
    Batch(Vec<T>),
    /// Reply with a clone of the current state (anytime query).
    Snapshot(Sender<E>),
    /// Read-plane marker: clone the current state and hand it to the
    /// aggregator as this shard's contribution to `epoch`. Ordered
    /// through the same FIFO channel as batches, so the clone covers
    /// exactly the batches dispatched before the marker — which is
    /// what makes published views bit-identical to an on-demand merge
    /// at `offset`.
    Publish {
        /// The epoch this view contributes to.
        epoch: u64,
        /// Items the router had dispatched when it issued the marker.
        offset: u64,
    },
    /// Injected delay: sleep this many milliseconds (backpressures the
    /// router and delays frames; never changes results).
    Stall(u64),
    /// Injected kill: panic on the worker thread with this message.
    Poison(String),
}

/// Worker-thread hook invoked with `(state, applied_batches)`.
pub(crate) type AppliedHook<E> = Box<dyn FnMut(&E, u64) + Send>;

/// Per-worker wiring the engine hands to [`spawn_worker`].
pub(crate) struct WorkerCtx<E> {
    /// This worker's shard index (stamped onto published shard views).
    pub shard: usize,
    /// Called with `(state, applied)` once at spawn (with the base
    /// ordinal) and after every applied batch. Frame emission lives in
    /// this closure; under a zero restart budget it is `None` and the
    /// worker pays nothing.
    pub on_applied: Option<AppliedHook<E>>,
    /// Read-plane sink for [`Command::Publish`] replies; `None` when
    /// the read plane is disabled.
    pub views: Option<Sender<ShardView<E>>>,
}

/// One live worker lineage: its command channel and thread handle.
pub(crate) struct Lineage<E, T> {
    pub sender: SyncSender<Command<E, T>>,
    pub handle: JoinHandle<E>,
}

/// Spawns one worker owning `state`, with `base` applied batches
/// behind it (0 for a fresh spawn; the frame ordinal for a heal).
pub(crate) fn spawn_worker<E, T>(
    queue_depth: usize,
    state: E,
    base: u64,
    ctx: WorkerCtx<E>,
) -> Lineage<E, T>
where
    E: BatchIngest<T> + Clone + Send + 'static,
    T: Send + 'static,
{
    let (sender, rx) = sync_channel::<Command<E, T>>(queue_depth);
    let handle = std::thread::spawn(move || worker(state, base, &rx, ctx));
    Lineage { sender, handle }
}

/// The one worker loop in the crate: apply batches, answer snapshots,
/// contribute read-plane views, honour injected stalls/poisons, and
/// fire the `on_applied` hook after every applied batch.
fn worker<E, T>(mut estimator: E, base: u64, rx: &Receiver<Command<E, T>>, mut ctx: WorkerCtx<E>) -> E
where
    E: BatchIngest<T> + Clone,
{
    // The spawn callback: a healing lineage emits its base frame here,
    // before the first recv, so FIFO guarantees it is drainable at any
    // later join.
    if let Some(cb) = &mut ctx.on_applied {
        cb(&estimator, base);
    }
    let mut applied = base;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Batch(batch) => {
                estimator.apply_batch(&batch);
                applied += 1;
                if let Some(cb) = &mut ctx.on_applied {
                    cb(&estimator, applied);
                }
            }
            Command::Snapshot(reply) => {
                // The query side may have given up (dropped receiver);
                // ingestion must not die with it.
                let _ = reply.send(estimator.clone());
            }
            Command::Publish { epoch, offset } => {
                if let Some(views) = &ctx.views {
                    // The aggregator may already be gone at shutdown;
                    // a worker never dies over a dropped read plane.
                    let _ = views.send(ShardView {
                        shard: ctx.shard,
                        epoch,
                        offset,
                        state: estimator.clone(),
                    });
                }
            }
            Command::Stall(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            Command::Poison(msg) => faults::detonate(&msg),
        }
    }
    estimator
}

/// Merges the surviving shard states in shard order; `None` when every
/// shard is gone. Shard order is part of the determinism contract: the
/// read-plane aggregator merges in the same order, so published views
/// are bit-identical to on-demand merges.
pub(crate) fn merge_all<E: Mergeable>(states: Vec<Option<E>>) -> Option<E> {
    let mut it = states.into_iter().flatten();
    let mut merged = it.next()?;
    for state in it {
        merged.merge(&state);
    }
    Some(merged)
}
