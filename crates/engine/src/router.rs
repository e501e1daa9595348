//! The routing layer: how items pick shards, and the router-side
//! batching.
//!
//! Routing is a pure function of `(item, tick)` — the single
//! load-bearing fact behind every determinism and recovery argument in
//! this crate: replaying a stream from a recorded tick reproduces the
//! exact per-shard sub-streams, whatever happens to worker
//! lifecycles.

/// How a stream item picks its shard.
pub trait Routable {
    /// Shard for this item. `shards ≥ 1`; `tick` is a monotone
    /// per-engine counter usable for round-robin routing.
    fn route(&self, shards: usize, tick: u64) -> usize;
}

/// SplitMix64 finalizer: decorrelates consecutive paper ids so shards
/// stay balanced even on sequential-id streams. Exposed so callers can
/// predict (or replicate) the engine's key→shard assignment.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Cash-register updates route by paper index: every update to a paper
/// lands on the same shard.
impl Routable for (u64, u64) {
    fn route(&self, shards: usize, _tick: u64) -> usize {
        (mix64(self.0) % shards as u64) as usize
    }
}

/// Turnstile updates route by paper index too: an insert and its later
/// retraction must meet on the same shard for per-shard coalescing to
/// cancel them (any partition would still *merge* correctly — linear
/// sketches cancel across shards — but keeping a paper's history
/// together is what lets the batch path collapse it early).
impl Routable for (u64, i64) {
    fn route(&self, shards: usize, _tick: u64) -> usize {
        (mix64(self.0) % shards as u64) as usize
    }
}

/// Aggregate values are independent; round-robin keeps shards balanced.
impl Routable for u64 {
    fn route(&self, shards: usize, tick: u64) -> usize {
        (tick % shards as u64) as usize
    }
}

/// Router-side state: per-shard pending batches and the stream offset.
/// The router never touches a channel — it *yields* full batches to
/// the engine's dispatch, which owns delivery (send vs. log-then-send)
/// and death accounting.
pub(crate) struct Router<T> {
    shards: usize,
    batch_size: usize,
    /// Per-shard pending (unsent) batch.
    buffers: Vec<Vec<T>>,
    /// Items routed so far; the stream offset.
    tick: u64,
}

impl<T: Routable> Router<T> {
    pub(crate) fn new(shards: usize, batch_size: usize, tick: u64) -> Self {
        Self {
            shards,
            batch_size,
            buffers: (0..shards).map(|_| Vec::new()).collect(),
            tick,
        }
    }

    /// Routes one item into its shard's pending batch; returns the
    /// full batch (and its shard) when this item completed one.
    pub(crate) fn push(&mut self, item: T) -> Option<(usize, Vec<T>)> {
        let shard = item.route(self.shards, self.tick);
        self.tick += 1;
        let buf = &mut self.buffers[shard];
        buf.push(item);
        if buf.len() >= self.batch_size {
            let batch = std::mem::replace(buf, Vec::with_capacity(self.batch_size));
            return Some((shard, batch));
        }
        None
    }

    /// Takes `shard`'s pending partial batch, if any.
    pub(crate) fn take(&mut self, shard: usize) -> Option<Vec<T>> {
        let buf = self.buffers.get_mut(shard)?;
        if buf.is_empty() {
            None
        } else {
            Some(std::mem::take(buf))
        }
    }

    /// Items pending in `shard`'s buffer.
    pub(crate) fn pending(&self, shard: usize) -> usize {
        self.buffers.get(shard).map_or(0, Vec::len)
    }

    /// Items pending across all buffers.
    pub(crate) fn buffered_items(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    /// Items routed so far (the stream offset).
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_paper_always_same_shard() {
        for paper in 0..100u64 {
            let a = (paper, 1u64).route(8, 0);
            let b = (paper, 5u64).route(8, 123);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn routing_is_balanced() {
        let shards = 8usize;
        let mut counts = vec![0usize; shards];
        for paper in 0..8_000u64 {
            counts[(paper, 1u64).route(shards, 0)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 700 && c < 1_300,
                "shard {s} got {c} of 8000 sequential papers"
            );
        }
    }

    #[test]
    fn router_batches_and_counts() {
        let mut r: Router<(u64, u64)> = Router::new(2, 3, 0);
        let mut full = 0;
        for k in 0..12u64 {
            if r.push((k, 1)).is_some() {
                full += 1;
            }
        }
        assert_eq!(r.tick(), 12);
        assert_eq!(full * 3 + r.buffered_items(), 12);
        for shard in 0..2 {
            if let Some(b) = r.take(shard) {
                assert!(!b.is_empty() && b.len() < 3);
            }
            assert_eq!(r.pending(shard), 0);
        }
        assert_eq!(r.buffered_items(), 0);
    }
}
