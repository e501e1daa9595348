//! The serial replay: the engine's exact per-shard batches, rebuilt with
//! the public `Routable::route`, applied one shard after another on one
//! thread. It is the correctness reference (merged in shard order, its
//! `frame_digest()` must equal the answering state's) and the source of
//! the apply, merge and checkpoint-frame timings.

use crate::pass::Est;
use crate::workload::Item;
use hindex_engine::Routable;
use std::time::{Duration, Instant};

/// Per shard, the batches the engine's router dispatched, in order.
pub type ShardBatches = Vec<Vec<Vec<Item>>>;

/// Rebuilds the router's batches: items route by `Routable::route`, a
/// shard's batch goes out when it reaches `batch` items, and every
/// shard's partial batch goes out at each flush point (a stream offset
/// at which the engine flushed) and at the end.
pub fn rebuild(items: &[Item], shards: usize, batch: usize, flush_points: &[u64]) -> ShardBatches {
    let mut points = flush_points.to_vec();
    points.sort_unstable();
    points.dedup();
    let mut points = points.into_iter().peekable();
    let mut pending: Vec<Vec<Item>> = vec![Vec::new(); shards];
    let mut out: ShardBatches = vec![Vec::new(); shards];
    let flush = |pending: &mut Vec<Vec<Item>>, out: &mut ShardBatches| {
        for (buf, batches) in pending.iter_mut().zip(out.iter_mut()) {
            if !buf.is_empty() {
                batches.push(std::mem::take(buf));
            }
        }
    };
    for (tick, &item) in items.iter().enumerate() {
        let shard = item.route(shards, tick as u64);
        pending[shard].push(item);
        if pending[shard].len() >= batch {
            out[shard].push(std::mem::take(&mut pending[shard]));
        }
        let offset = tick as u64 + 1;
        while points
            .next_if(|&p| p <= offset)
            .is_some_and(|p| p == offset)
        {
            flush(&mut pending, &mut out);
        }
    }
    flush(&mut pending, &mut out);
    out
}

/// What the replay measured.
pub struct Replay<E> {
    /// Each shard's state after its batches.
    pub shards: Vec<E>,
    /// Each shard's apply time.
    pub busy: Vec<Duration>,
    /// Cloning every shard state.
    pub clone: Duration,
    /// Merging the clones in shard order.
    pub merge: Duration,
    /// The merged reference state's `frame_digest()`.
    pub digest: u64,
}

/// Applies each shard's batches to a clone of `prototype`, then clones
/// and merges the shard states in shard order, as the engine does.
pub fn replay<E: Est>(prototype: &E, batches: &ShardBatches) -> Replay<E> {
    let mut shards = Vec::with_capacity(batches.len());
    let mut busy = Vec::with_capacity(batches.len());
    for shard_batches in batches {
        let mut state = prototype.clone();
        let t = Instant::now();
        for b in shard_batches {
            state.apply_batch(b);
        }
        busy.push(t.elapsed());
        shards.push(state);
    }
    let t = Instant::now();
    let clones: Vec<E> = shards.to_vec();
    let clone = t.elapsed();
    let t = Instant::now();
    let mut clones = clones.into_iter();
    let mut merged = clones.next().expect("at least one shard");
    for state in clones {
        merged.merge(&state);
    }
    let merge = t.elapsed();
    Replay {
        digest: merged.frame_digest(),
        shards,
        busy,
        clone,
        merge,
    }
}

/// The single-threaded baseline: one state ingests the whole stream in
/// `batch`-sized calls. Returns its apply time and its digest.
pub fn serial<E: Est>(prototype: &E, items: &[Item], batch: usize) -> (Duration, u64) {
    let mut state = prototype.clone();
    let t = Instant::now();
    for b in items.chunks(batch) {
        state.apply_batch(b);
    }
    (t.elapsed(), state.frame_digest())
}

/// Raw items over distinct keys, summed over batches: how far the
/// batches let duplicates coalesce.
pub fn coalesced_items(batches: &ShardBatches) -> u64 {
    let mut keys = Vec::new();
    let mut total = 0u64;
    for b in batches.iter().flatten() {
        keys.clear();
        keys.extend(b.iter().map(|&(p, _)| p));
        keys.sort_unstable();
        keys.dedup();
        total += keys.len() as u64;
    }
    total
}
