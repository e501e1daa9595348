//! The read plane: epoch-versioned published views served to
//! concurrent readers without blocking the router.
//!
//! Every anytime query through the engine's `query` verb pays a full
//! clone-and-merge and needs `&mut` access — one reader at a time.
//! The read plane inverts that: at a configurable
//! `publish_interval` (see
//! [`EngineConfigBuilder::publish_interval`]), the router flushes its
//! partial batches and threads a marker through every shard's FIFO
//! channel: a [`Command::Cut`] whose sink clones the shard's state into
//! the view channel. A dedicated **aggregator** thread merges the
//! clones in shard order and swaps the merged view into an
//! [`EpochCell`]. Any number of cloned [`ReadHandle`]s then answer
//! queries from the latest view with `&self`, never touching the
//! router or the workers.
//!
//! # Consistency contract
//!
//! * **Bit-identity.** A marker for epoch *e* is ordered behind every
//!   batch the router dispatched before it, and the router flushes its
//!   partial buffers first — so each shard's clone covers exactly its
//!   share of the first `offset` routed items, and the shard-order
//!   merge equals an on-demand `query` (or a serial run) at the same
//!   offset, bit for bit. The read-plane test suites pin this with
//!   state digests.
//! * **Monotone epochs, no torn views.** The cell is one
//!   `RwLock<Option<Arc<view>>>` plus an atomic epoch counter. The
//!   aggregator installs views in epoch order, swapping the `Arc` under
//!   the write lock and then releasing the counter; a reader takes the
//!   read lock just long enough to clone the `Arc`. A reader therefore
//!   sees views at non-decreasing epochs, and since a view's contents
//!   are immutable behind the `Arc`, a torn read cannot be constructed.
//!   Reads and the swap are brief critical sections, not wait-free:
//!   a reader can wait out one pointer swap, and a swap can wait out
//!   the readers' `Arc` clones. The displaced view is freed outside
//!   the lock.
//! * **Never a degraded view.** An epoch is published only when *all*
//!   shards contributed. A worker that dies before its marker takes
//!   the epoch down with it (markers are not replay-logged), so a
//!   kill-and-heal can delay publication but can never expose a view
//!   missing a shard's updates — see `tests/engine_faults.rs`.
//!
//! [`EngineConfigBuilder::publish_interval`]: crate::EngineConfigBuilder::publish_interval
//! [`Command::Cut`]: crate::runtime::Command

use crate::error::QueryReport;
use crate::runtime::{merge_all, Sink};
use hindex_common::{Estimate, Guarantee, Mergeable, SpaceUsage};
use hindex_obs::{EngineObserver, Stopwatch};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

/// One shard's contribution to an epoch: its state clone after exactly
/// its share of the first `offset` routed items.
struct ShardView<E> {
    shard: usize,
    epoch: u64,
    offset: u64,
    state: E,
}

/// A fully merged, immutable published view.
struct Published<E> {
    epoch: u64,
    offset: u64,
    state: E,
}

/// Read or write the cell without panicking on a poisoned lock: the
/// data behind the lock is an `Option<Arc<_>>` swap, never left
/// half-written, so recovery is always sound.
fn lock_read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The epoch-published cell readers share: the newest view behind one
/// lock, plus a monotone epoch counter readers can poll without it.
struct EpochCell<E> {
    /// Newest published epoch; `0` = nothing published yet (epochs are
    /// 1-based). Stored with release ordering *after* the view swap.
    epoch: AtomicU64,
    view: RwLock<Option<Arc<Published<E>>>>,
    /// The router's latest announced stream offset, for staleness.
    current_offset: AtomicU64,
}

impl<E> EpochCell<E> {
    fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            view: RwLock::new(None),
            current_offset: AtomicU64::new(0),
        }
    }

    /// Publisher side: swap the view, then release the epoch. The
    /// displaced view is dropped after the lock is released, so readers
    /// never wait while a large estimator is freed.
    fn install(&self, view: Arc<Published<E>>) {
        let e = view.epoch;
        debug_assert!(e > self.epoch.load(Ordering::Relaxed), "epochs publish in order");
        let displaced = lock_write(&self.view).replace(view);
        self.epoch.store(e, Ordering::Release);
        drop(displaced);
    }

    /// Reader side: clone the newest view's `Arc` under the read lock.
    fn load(&self) -> Option<Arc<Published<E>>> {
        lock_read(&self.view).clone()
    }
}

/// Engine-side controller of the read plane: owns the cell, the view
/// channel the workers feed, and the aggregator thread. The engine
/// holds one when `publish_interval` is configured.
pub(crate) struct ReadPlane<E> {
    cell: Arc<EpochCell<E>>,
    view_tx: Option<Sender<ShardView<E>>>,
    agg: Option<JoinHandle<()>>,
    interval: u64,
    /// Epochs issued so far (markers sent; completion is async).
    issued: u64,
    /// Stream offset at the last issued epoch.
    last_publish: u64,
    observer: Option<Arc<EngineObserver>>,
}

// `Sync` because readers share published views by reference (`&E`
// through the `Arc`) across threads; every workspace estimator is
// plain owned data, so this is automatic.
impl<E: Mergeable + Send + Sync + 'static> ReadPlane<E> {
    pub(crate) fn new(shards: usize, interval: u64, observer: Option<Arc<EngineObserver>>) -> Self {
        let cell = Arc::new(EpochCell::new());
        let (view_tx, view_rx) = channel();
        let agg_cell = Arc::clone(&cell);
        let agg_obs = observer.clone();
        let agg = std::thread::spawn(move || aggregate(&view_rx, &agg_cell, shards, agg_obs));
        Self {
            cell,
            view_tx: Some(view_tx),
            agg: Some(agg),
            interval,
            issued: 0,
            last_publish: 0,
            observer,
        }
    }

    /// The sink of `shard`'s marker for `epoch`: it clones the shard's
    /// state into the aggregator as its share of the first `offset`
    /// routed items. `None` once the plane is shutting down.
    pub(crate) fn marker(&self, shard: usize, epoch: u64, offset: u64) -> Option<Sink<E>>
    where
        E: Clone,
    {
        let views = self.view_tx.clone()?;
        Some(Box::new(move |state: &E| {
            // The aggregator may already be gone at shutdown; a worker
            // never dies over a dropped read plane.
            let _ = views.send(ShardView { shard, epoch, offset, state: state.clone() });
        }))
    }

    /// Whether the router owes a publish at stream offset `tick`.
    pub(crate) fn due(&self, tick: u64) -> bool {
        tick.saturating_sub(self.last_publish) >= self.interval
    }

    /// Begins an epoch at stream offset `tick` and returns its number;
    /// the caller sends the markers. Fired on the router thread, so
    /// the publish sequence is deterministic for a fixed stream.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`issued` counts epochs, one per publish"
    )]
    pub(crate) fn begin_epoch(&mut self, tick: u64) -> u64 {
        self.issued += 1;
        self.last_publish = tick;
        self.cell.current_offset.store(tick, Ordering::Release);
        if let Some(o) = &self.observer {
            o.on_view_published(tick, self.issued);
        }
        self.issued
    }

    /// Announces the router's stream offset (batch boundaries), which
    /// is what readers measure staleness against.
    pub(crate) fn note_offset(&self, tick: u64) {
        self.cell.current_offset.store(tick, Ordering::Release);
    }

    /// A cloneable reader handle onto the published views.
    pub(crate) fn handle(&self) -> ReadHandle<E> {
        ReadHandle {
            cell: Arc::clone(&self.cell),
            observer: self.observer.clone(),
        }
    }
}

impl<E> Drop for ReadPlane<E> {
    fn drop(&mut self) {
        // The engine joins its workers before its fields drop, so
        // every sender clone a queued marker held is already gone;
        // dropping ours lets the aggregator drain and exit.
        self.view_tx = None;
        if let Some(agg) = self.agg.take() {
            let _ = agg.join();
        }
    }
}

/// The aggregator loop: collect per-epoch shard views, merge complete
/// epochs in shard order, install them in epoch order, and discard
/// epochs a dead shard left incomplete once a newer epoch completes.
#[expect(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    reason = "workers answer for their own shard index, below `shards`; `got` counts distinct shards"
)]
fn aggregate<E: Mergeable>(
    rx: &Receiver<ShardView<E>>,
    cell: &EpochCell<E>,
    shards: usize,
    observer: Option<Arc<EngineObserver>>,
) {
    struct Pending<E> {
        offset: u64,
        states: Vec<Option<E>>,
        got: usize,
    }
    let mut pending: BTreeMap<u64, Pending<E>> = BTreeMap::new();
    while let Ok(v) = rx.recv() {
        if v.epoch <= cell.epoch.load(Ordering::Relaxed) {
            continue; // straggler behind an already-published epoch
        }
        let p = pending.entry(v.epoch).or_insert_with(|| Pending {
            offset: v.offset,
            states: (0..shards).map(|_| None).collect(),
            got: 0,
        });
        if p.states[v.shard].is_none() {
            p.got += 1;
        }
        p.states[v.shard] = Some(v.state);
        if p.got < shards {
            continue;
        }
        let epoch = v.epoch;
        let sw = Stopwatch::start();
        let Some(complete) = pending.remove(&epoch) else { continue };
        // Epochs below a complete one can only be incomplete (a worker
        // died holding their marker); a newer complete view supersedes
        // them, so they are dropped rather than ever published short.
        pending = pending.split_off(&epoch);
        let Some(merged) = merge_all(complete.states) else { continue };
        cell.install(Arc::new(Published { epoch, offset: complete.offset, state: merged }));
        if let Some(o) = &observer {
            o.on_view_ready(epoch, sw.elapsed_nanos());
        }
    }
}

/// A cloneable, `&self` handle onto an engine's published views.
///
/// Obtained from [`Shards::read_handle`](crate::Shards::read_handle)
/// when the engine was built with a `publish_interval`. Clone it into
/// as many reader threads as you like: a query never touches the
/// router or the workers, and takes the cell's read lock only to clone
/// one `Arc`.
///
/// ```
/// use hindex_baseline::CashTable;
/// use hindex_common::{Engine, Estimate};
/// use hindex_engine::{EngineConfig, ShardedEngine};
///
/// let config = EngineConfig::builder()
///     .shards(2)
///     .batch(16)
///     .publish_interval(128)
///     .build()
///     .unwrap();
/// let mut engine = ShardedEngine::new(config, CashTable::new());
/// let reader = engine.read_handle().unwrap();
/// for k in 0..2_000u64 {
///     engine.ingest((k % 50, 1));
/// }
/// let epoch = engine.publish_now().unwrap();
/// assert!(reader.wait_for_epoch(epoch, 5_000));
/// let view = reader.query().unwrap(); // &self — ingestion untouched
/// assert!(view.estimator().estimate() > 0);
/// assert_eq!(view.offset(), 2_000);
/// let _ = engine.finish().unwrap();
/// ```
pub struct ReadHandle<E> {
    cell: Arc<EpochCell<E>>,
    observer: Option<Arc<EngineObserver>>,
}

// Manual impl: handles are cloneable whatever `E` is.
impl<E> Clone for ReadHandle<E> {
    fn clone(&self) -> Self {
        Self {
            cell: Arc::clone(&self.cell),
            observer: self.observer.clone(),
        }
    }
}

impl<E> ReadHandle<E> {
    /// The latest published view, or `None` when no epoch has
    /// completed yet. Takes `&self` and never blocks the router;
    /// readers share the cell's read lock.
    #[must_use]
    pub fn query(&self) -> Option<ReadView<E>> {
        let view = self.cell.load();
        if let Some(o) = &self.observer {
            o.on_read_query(view.is_some());
        }
        let view = view?;
        let now = self.cell.current_offset.load(Ordering::Acquire);
        Some(ReadView {
            staleness: now.saturating_sub(view.offset),
            view,
        })
    }

    /// Newest published epoch (`0` = nothing published yet).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.cell.epoch.load(Ordering::Acquire)
    }

    /// The router's latest announced stream offset.
    #[must_use]
    pub fn stream_offset(&self) -> u64 {
        self.cell.current_offset.load(Ordering::Acquire)
    }

    /// Blocks (politely, in 1 ms naps) until the published epoch
    /// reaches `epoch` or ~`max_ms` elapsed; `true` on success. Use
    /// after [`publish_now`](crate::Shards::publish_now) when a
    /// caller needs the *completed* view rather than a best-effort
    /// latest.
    #[must_use]
    pub fn wait_for_epoch(&self, epoch: u64, max_ms: u64) -> bool {
        for _ in 0..=max_ms {
            if self.epoch() >= epoch {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        self.epoch() >= epoch
    }

    /// The latest view packaged as a typed [`QueryReport`], with
    /// [`QueryReport::epoch`] and [`QueryReport::staleness`] filled
    /// in. `None` when nothing is published yet.
    #[must_use]
    pub fn report(&self, contract: Option<Guarantee>) -> Option<QueryReport>
    where
        E: Estimate + SpaceUsage,
    {
        let view = self.query()?;
        Some(QueryReport {
            estimate: view.estimator().estimate(),
            approx_contract: contract,
            space_words: view.estimator().space_words(),
            degraded: Vec::new(), // published views are never degraded
            epoch: Some(view.epoch()),
            staleness: view.staleness(),
            obs: self.observer.as_ref().map(|o| Box::new(o.snapshot())),
        })
    }
}

/// One consistent published view: the merged estimator at a recorded
/// epoch and stream offset, plus how far the stream had moved on when
/// the view was read.
pub struct ReadView<E> {
    view: Arc<Published<E>>,
    staleness: u64,
}

impl<E> ReadView<E> {
    /// The epoch this view was published under.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.view.epoch
    }

    /// Items the stream had routed when this view's markers were
    /// issued: the view is bit-identical to a serial run over the
    /// first `offset()` items.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.view.offset
    }

    /// Ticks the router had moved past this view's offset when it was
    /// read (measured at batch/publish boundaries).
    #[must_use]
    pub fn staleness(&self) -> u64 {
        self.staleness
    }

    /// The merged estimator.
    #[must_use]
    pub fn estimator(&self) -> &E {
        &self.view.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_baseline::CashTable;
    use hindex_common::{CashRegisterEstimator, Estimate, Snapshot};

    fn published(epoch: u64, offset: u64, h: u64) -> Arc<Published<CashTable>> {
        let mut t = CashTable::new();
        for p in 0..h {
            t.ingest(p, h);
        }
        Arc::new(Published { epoch, offset, state: t })
    }

    #[test]
    fn cell_is_empty_until_first_install() {
        let cell: EpochCell<CashTable> = EpochCell::new();
        assert!(cell.load().is_none());
        cell.install(published(1, 100, 5));
        let v = cell.load().unwrap();
        assert_eq!((v.epoch, v.offset), (1, 100));
        assert_eq!(v.state.estimate(), 5);
    }

    #[test]
    fn newest_install_wins() {
        let cell: EpochCell<CashTable> = EpochCell::new();
        for e in 1..=10u64 {
            cell.install(published(e, e * 64, e));
            let v = cell.load().unwrap();
            assert_eq!(v.epoch, e);
            assert_eq!(v.state.estimate(), e);
        }
    }

    #[test]
    fn handle_reports_epoch_and_staleness() {
        let cell = Arc::new(EpochCell::new());
        let handle = ReadHandle { cell: Arc::clone(&cell), observer: None };
        assert!(handle.query().is_none());
        assert_eq!(handle.epoch(), 0);
        cell.install(published(3, 300, 4));
        cell.current_offset.store(420, Ordering::Release);
        let view = handle.query().unwrap();
        assert_eq!(view.epoch(), 3);
        assert_eq!(view.offset(), 300);
        assert_eq!(view.staleness(), 120);
        let report = handle.report(None).unwrap();
        assert_eq!(report.epoch, Some(3));
        assert_eq!(report.staleness, 120);
        assert_eq!(report.estimate, 4);
    }

    /// In-crate concurrency smoke (also exercised under TSan by
    /// `scripts/check.sh`): hammer a cell from reader threads while a
    /// publisher installs epochs; every view read must be internally
    /// consistent (epoch monotone per reader, digest matches the
    /// installed view for that epoch).
    #[test]
    fn concurrent_readers_never_see_torn_or_regressing_views() {
        let cell: Arc<EpochCell<CashTable>> = Arc::new(EpochCell::new());
        let digests: Vec<u64> = (1..=50u64)
            .map(|e| published(e, e * 10, e).state.frame_digest())
            .collect();
        let digests = Arc::new(digests);
        let mut readers = Vec::new();
        for _ in 0..4 {
            let handle = ReadHandle { cell: Arc::clone(&cell), observer: None };
            let digests = Arc::clone(&digests);
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                let mut seen = 0u64;
                while last < 50 {
                    if let Some(view) = handle.query() {
                        assert!(view.epoch() >= last, "epoch regressed");
                        assert_eq!(
                            view.estimator().frame_digest(),
                            digests[(view.epoch() - 1) as usize],
                            "torn view at epoch {}",
                            view.epoch()
                        );
                        last = view.epoch();
                        seen += 1;
                    }
                }
                seen
            }));
        }
        for e in 1..=50u64 {
            cell.install(published(e, e * 10, e));
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }
}
