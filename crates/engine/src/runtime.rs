//! The shard-runtime core: the one worker loop, its command set, and
//! worker spawn plumbing.
//!
//! The engine ([`Shards`](crate::Shards), under either name) decides
//! *when* workers spawn, die, and respawn; the runtime defines *what a
//! worker is*. There is exactly one worker loop in the crate, and one
//! way to read a worker's state: a [`Command::Cut`], whose sink runs on
//! the state at its place in the FIFO. Queries, read-plane publishes
//! and recovery bases are all cuts; they differ only in their sinks.

use crate::faults;
use crate::BatchIngest;
use hindex_common::Mergeable;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// What a cut does with the worker's state: clone it into a reply,
/// a shard view or a recovery base, or read one figure off it.
pub(crate) type Sink<E> = Box<dyn FnOnce(&E) + Send>;

/// Commands a shard worker understands: `Batch` and `Cut` carry the
/// stream and every read of it; stalls and poisons exist only for fault
/// injection.
pub(crate) enum Command<E, T> {
    /// Apply one batch of items.
    Batch(Vec<T>),
    /// Run the sink on the current state. Ordered through the same
    /// FIFO channel as batches, so the sink sees exactly the batches
    /// sent before the cut — a consistent per-shard state, which is
    /// what makes query merges, published views and healed shards
    /// bit-identical to a serial run.
    Cut(Sink<E>),
    /// Injected delay: sleep this many milliseconds (backpressures the
    /// router and delays cuts; never changes results).
    Stall(u64),
    /// Injected kill: panic on the worker thread with this message.
    Poison(String),
}

/// One live worker lineage: its command channel and thread handle.
pub(crate) struct Lineage<E, T> {
    pub sender: SyncSender<Command<E, T>>,
    pub handle: JoinHandle<E>,
}

/// Spawns one worker owning `state`.
pub(crate) fn spawn_worker<E, T>(queue_depth: usize, state: E) -> Lineage<E, T>
where
    E: BatchIngest<T> + Send + 'static,
    T: Send + 'static,
{
    let (sender, rx) = sync_channel::<Command<E, T>>(queue_depth);
    let handle = std::thread::spawn(move || worker(state, &rx));
    Lineage { sender, handle }
}

/// The one worker loop in the crate: apply batches, run cut sinks, and
/// honour injected stalls and poisons. Returns the final state once
/// every sender is gone.
fn worker<E, T>(mut estimator: E, rx: &Receiver<Command<E, T>>) -> E
where
    E: BatchIngest<T>,
{
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Batch(batch) => estimator.apply_batch(&batch),
            Command::Cut(sink) => sink(&estimator),
            Command::Stall(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
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
