//! Sharded, batched, multi-threaded ingestion engine.
//!
//! The paper's estimators are small — a few kilowords — but the streams
//! they are meant for (every citation event of a corpus) are firehoses.
//! This crate turns any [`Mergeable`] estimator into a parallel
//! ingestion pipeline, structured as explicit layers:
//!
//! ```text
//!   routing layer   router.rs      item→shard assignment, batching, tick
//!   runtime core    runtime.rs     the one worker loop + command set
//!   engine          lib.rs         Shards: constructors + the Engine verbs
//!   lifecycle       supervisor.rs  delivery, worker death, heal, faults
//!   read plane      read_plane.rs  epoch-published views, ReadHandle
//! ```
//!
//! ```text
//!             ┌────────────┐   bounded    ┌──────────┐
//!  updates →  │ router     │── channel ──▶│ shard 0  │ estimator clone
//!             │ (batches,  │── channel ──▶│ shard 1  │ estimator clone
//!             │  by author)│── channel ──▶│   ...    │
//!             └────────────┘              └─────┬────┘
//!                          one Cut command, three sinks:
//!                          query: clone + merge
//!                          publish: epoch views ─▶ aggregator ─▶ ReadHandle
//!                          recovery: retained bases ─▶ supervisor
//! ```
//!
//! * There is one engine type, [`Shards`], under two names with two
//!   constructor sets: [`ShardedEngine::new`] (fail-hard) and
//!   [`SupervisedEngine::new`] / [`SupervisedEngine::with_faults`]
//!   (self-healing). Fail-hard is supervision with a restart budget of
//!   zero, so both run the same verbs, the same delivery path, and the
//!   same worker-death path; see [Self-healing](#self-healing).
//! * The caller feeds items one at a time or in slices through the
//!   [`Engine`] verbs (`ingest`, `ingest_batch`). Items accumulate in
//!   per-shard batches and are handed to worker threads over bounded
//!   channels, so a slow shard exerts backpressure instead of
//!   ballooning memory.
//! * Cash-register updates route by a hash of the paper index, so all
//!   updates to one paper land on one shard; aggregate values route
//!   round-robin. Routing is the [`Routable`] trait — any partition is
//!   correct for a [`Mergeable`] estimator, these defaults just keep
//!   related work together.
//! * Each worker owns a **clone of one seeded prototype** estimator.
//!   Cloning (rather than building per shard) is what satisfies
//!   [`Mergeable`]'s shared-randomness precondition: the linear
//!   sketches inside then merge to exactly the single-stream state.
//! * Queries are *anytime*: `query` flushes pending batches, cuts every
//!   shard in place (a clone taken at the cut's place in the shard's
//!   FIFO), and merges the clones into one estimator without stopping
//!   ingestion. `finish` retires the workers and returns the final
//!   merged estimator.
//!
//! Estimators plug in through [`BatchIngest`], which is implemented
//! automatically for every
//! [`CashRegisterEstimator`](hindex_common::CashRegisterEstimator)
//! (over `(u64, u64)` items), every
//! [`TurnstileEstimator`](hindex_common::TurnstileEstimator) (over
//! signed `(u64, i64)` items — retraction streams), and every
//! [`AggregateEstimator`](hindex_common::AggregateEstimator) (over
//! `u64` items) — including their `ingest_batch` fast paths, which is
//! where the engine's throughput comes from on key-skewed streams.
//!
//! # The read plane
//!
//! An engine built with
//! [`EngineConfigBuilder::publish_interval`] additionally *publishes*:
//! every `interval` routed items the router flushes its partial
//! batches and threads an epoch marker through every shard's channel;
//! the shards' state clones are merged off-thread and swapped into an
//! epoch-versioned cell that any number of cloned [`ReadHandle`]s
//! query with `&self`. Readers never touch the router or the workers;
//! each read takes a brief read lock around an `Arc` clone. Every
//! published view is bit-identical to an on-demand merge at the view's
//! recorded offset. See [`ReadHandle`] and `docs/ENGINE.md` for the
//! epoch/staleness contract.
//!
//! # Concurrency audit
//!
//! The engine's correctness argument has exactly three legs, each
//! checked mechanically (see `tests/engine_schedules.rs` and the
//! Miri/TSan stages in `scripts/check.sh`):
//!
//! 1. **Per-shard FIFO.** Each shard's channel delivers its batches in
//!    send order, so a shard's estimator sees a deterministic
//!    sub-stream: routing is a pure function of `(item, tick)` and the
//!    router runs single-threaded. Read-plane markers ride the same
//!    FIFO, so a shard's epoch contribution covers exactly the batches
//!    dispatched before the marker.
//! 2. **Cross-shard order freedom.** Shards interleave arbitrarily, but
//!    every pluggable estimator is [`Mergeable`] over *commutative,
//!    exact* state (field addition, counter addition), so any
//!    interleaving of per-shard prefixes merges to the same bits. The
//!    deterministic-schedule stress test replays seeded interleavings
//!    single-threaded and asserts bit-identical merged state.
//! 3. **No shared mutable state.** Workers own their estimator clones;
//!    the only cross-thread traffic is by-value message passing
//!    (`sync_channel`) plus the read plane's epoch cell (an atomic
//!    epoch over one `RwLock`-guarded `Arc` of an immutable view),
//!    queries clone the state at a cut rather than lock, and the
//!    workspace lint `unsafe_code = "forbid"` (inherited through
//!    `[lints] workspace = true`) rules out hand-rolled sharing. A
//!    worker that panics poisons nothing: the engine joins it,
//!    harvests the panic payload, and — once healing is out of
//!    budget — `finish`/`query` return [`EngineError::ShardDead`]
//!    carrying it. Callers that prefer a lossy answer over none opt in
//!    explicitly via `query_degraded` / `finish_degraded`, which merge
//!    the surviving shards and report which ones are missing.
//!
//! # Crash recovery
//!
//! `checkpoint` flushes, cuts every shard, and packages the states
//! with the engine geometry and the stream offset (items routed so far)
//! into an [`EngineCheckpoint`] — a
//! [`Snapshot`](hindex_common::Snapshot)-serialisable value when the
//! estimator is.
//! [`ShardedEngine::restore`] validates the checkpoint and respawns the
//! workers from those states; replaying the stream from
//! [`EngineCheckpoint::stream_offset`] then reproduces the never-killed
//! run bit for bit (routing is a pure function of `(item, tick)` and
//! the tick is part of the checkpoint).
//!
//! # Self-healing
//!
//! With a nonzero [`SupervisorConfig::max_restarts`], the router cuts
//! every worker at spawn and then every
//! [`SupervisorConfig::checkpoint_interval`] batches: the worker clones
//! its state at the cut (on the worker thread, so the router never
//! stalls), and the engine retains the newest clone as the shard's
//! recovery base. It also keeps a bounded replay log of batches since
//! that base, and on worker death it clones the base into a fresh
//! worker and replays the log — bit-identical to an uninterrupted run,
//! because a clone taken at a FIFO marker is an exact restart point.
//! With a budget of zero (what [`ShardedEngine::new`] builds) the
//! engine takes no recovery cuts, keeps no log, and moves each batch to
//! its worker; a death is terminal at once. A deterministic, seeded
//! [`FaultPlan`] injects worker kills, send failures, and stalls for
//! chaos testing (`hindex engine --faults`). See `docs/RECOVERY.md`
//! for the supervision state machine and the degradation ladder.
//!
//! # Observability
//!
//! Attach an [`EngineObserver`](hindex_obs::EngineObserver) via
//! [`EngineConfig::builder`] and the engine reports per-shard item
//! counts and queue depths, batch-size statistics, routing skew,
//! degraded-query counts, and checkpoint/restore timings — plus a
//! deterministic event trace with logical timestamps. Every hook is
//! fired from the router thread (never from workers), so for a fixed
//! input and seed the counters and the event sequence are
//! bit-reproducible; wall-clock durations live only in latency
//! histograms, which the determinism suite ignores. (The read plane's
//! completion gauge and reader counters are the documented exception:
//! they fire from the aggregator and reader threads and are excluded
//! from determinism diffs, like queue depths.) An uninstrumented
//! engine pays one branch-on-`None` per batch boundary — the
//! `obs_overhead` bench group holds this under 5%. `report` packages a
//! query, the approximation contract, space, degradation, and the
//! metrics snapshot into one typed [`QueryReport`] for CLI/bench
//! boundaries.

#![deny(missing_docs)]

mod checkpoint;
mod config;
mod error;
pub mod faults;
mod read_plane;
mod replay;
mod router;
mod runtime;
mod supervisor;

pub use checkpoint::EngineCheckpoint;
pub use config::{EngineConfig, EngineConfigBuilder, SupervisorConfig};
pub use error::{EngineError, QueryReport};
pub use faults::{FaultKind, FaultPlan};
pub use hindex_common::{Degraded, Engine};
pub use read_plane::{ReadHandle, ReadView};
pub use router::{mix64, Routable};

use faults::Fault;
use hindex_common::{
    AggregateEstimator, BankCounters, CashRegisterEstimator, Estimate, Guarantee, Mergeable,
    SpaceUsage, TurnstileEstimator,
};
use hindex_obs::Stopwatch;
use read_plane::ReadPlane;
use router::Router;
use runtime::{merge_all, Command};
use supervisor::Shard;

/// Batched ingestion of stream items of type `T`.
///
/// Blanket-implemented for the workspace's estimator traits; implement
/// it directly only for custom item types.
pub trait BatchIngest<T> {
    /// Ingests one batch, semantically equivalent to ingesting each
    /// item in order.
    fn apply_batch(&mut self, batch: &[T]);

    /// Bank-kernel telemetry the estimator accumulated, if it exposes
    /// any — surfaced through the attached
    /// [`EngineObserver`](hindex_obs::EngineObserver) when a query
    /// merges shard states. Default: none.
    fn bank_counters(&self) -> Option<BankCounters> {
        None
    }
}

impl<E: CashRegisterEstimator> BatchIngest<(u64, u64)> for E {
    fn apply_batch(&mut self, batch: &[(u64, u64)]) {
        self.ingest_batch(batch);
    }

    fn bank_counters(&self) -> Option<BankCounters> {
        CashRegisterEstimator::bank_counters(self)
    }
}

impl<E: AggregateEstimator> BatchIngest<u64> for E {
    fn apply_batch(&mut self, batch: &[u64]) {
        self.ingest_batch(batch);
    }
}

impl<E: TurnstileEstimator> BatchIngest<(u64, i64)> for E {
    fn apply_batch(&mut self, batch: &[(u64, i64)]) {
        self.ingest_batch(batch);
    }
}

/// The fail-hard engine: [`Shards`] with a restart budget of zero. A
/// dead worker's shard is lost, and strict queries refuse until the
/// caller opts into degradation.
pub type ShardedEngine<E, T> = Shards<E, T, false>;

/// The self-healing engine: [`Shards`] under a [`SupervisorConfig`].
/// Worker death triggers a restart from the shard's recovery base plus
/// replay instead of data loss, bounded by the restart budget and the
/// replay-log budget.
pub type SupervisedEngine<E, T> = Shards<E, T, true>;

/// A multi-threaded sharded ingestion pipeline around a [`Mergeable`]
/// estimator: the one engine behind [`ShardedEngine`] and
/// [`SupervisedEngine`]. Its verbs are the [`Engine`] trait's.
///
/// `HEAL` only selects the constructor set (and keeps the two names
/// distinct types). Behaviour follows from
/// [`SupervisorConfig::max_restarts`]: at zero the engine takes no
/// recovery cuts, keeps no replay log, and a dead shard is terminal at
/// once; above zero it heals (see the crate docs).
///
/// ```
/// use hindex_common::{Engine, Estimate};
/// use hindex_baseline::CashTable;
/// use hindex_engine::{EngineConfig, ShardedEngine};
///
/// let config = EngineConfig::builder().shards(4).build().unwrap();
/// let mut engine = ShardedEngine::new(config, CashTable::new());
/// for k in 0..10_000u64 {
///     engine.ingest((k % 300, 1));
/// }
/// let snapshot = engine.query().unwrap(); // anytime: ingestion keeps running
/// assert!(snapshot.estimate() > 0);
/// let exact = engine.finish().unwrap();
/// assert_eq!(exact.estimate(), 34); // 100 papers at 34, 200 at 33
/// ```
///
/// The self-healing name survives worker death exactly:
///
/// ```
/// use hindex_baseline::CashTable;
/// use hindex_common::{Engine, Estimate};
/// use hindex_engine::{EngineConfig, FaultPlan, SupervisedEngine, SupervisorConfig};
///
/// let config = EngineConfig::builder().shards(2).batch(8).build().unwrap();
/// // Kill both workers mid-stream; recovery is exact.
/// let plan = FaultPlan::kill_sweep(2, 100, 200);
/// let mut engine =
///     SupervisedEngine::with_faults(config, SupervisorConfig::default(), plan, CashTable::new())
///         .unwrap();
/// for k in 0..1_000u64 {
///     engine.ingest((k % 40, 1));
/// }
/// assert_eq!(engine.finish().unwrap().estimate(), 25);
/// ```
///
/// Attach an [`EngineObserver`](hindex_obs::EngineObserver) through
/// the builder to get metrics, traces, and a [`QueryReport`] — see the
/// crate docs and `docs/OBSERVABILITY.md`. Configure a
/// `publish_interval` and clone [`Shards::read_handle`] into reader
/// threads for concurrent queries that never touch the router.
pub struct Shards<E, T, const HEAL: bool> {
    config: EngineConfig,
    sup: SupervisorConfig,
    /// Planned faults, each with whether it has fired.
    plan: Vec<(Fault, bool)>,
    /// Per-shard worker lineage and supervision record.
    shards: Vec<Shard<E, T>>,
    /// Routing + batching + stream offset.
    router: Router<T>,
    /// The read plane, when `publish_interval` is configured. Dropped
    /// after the workers are joined (see `Drop`), which is what lets
    /// the aggregator drain and exit.
    plane: Option<ReadPlane<E>>,
}

impl<E, T> Shards<E, T, false>
where
    E: BatchIngest<T> + Mergeable + Estimate + SpaceUsage + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    /// Spawns the worker shards, each owning a clone of `prototype`,
    /// under a restart budget of zero.
    ///
    /// The prototype carries the randomness every shard shares — build
    /// it once from a seeded RNG (e.g. via
    /// [`EstimatorParams::build`](hindex_common::EstimatorParams::build))
    /// and hand it over.
    ///
    /// # Panics
    ///
    /// Panics with the reason when `config` fails the validation that
    /// [`SupervisedEngine::new`] returns as
    /// [`EngineError::InvalidConfig`]: a zero geometry field,
    /// `publish_interval: Some(0)`, or an observer sized for a
    /// different shard count.
    #[must_use]
    pub fn new(config: EngineConfig, prototype: E) -> Self {
        let verdict = config.validate();
        assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        let states = vec![prototype; config.shards];
        Self::spawn_all(config, fail_hard(), FaultPlan::none(), states, 0)
    }

    /// Respawns an engine from a checkpoint (taken under either name):
    /// one worker per checkpointed shard state, with the stream offset
    /// restored, so replaying the input from
    /// [`EngineCheckpoint::stream_offset`] continues the original run
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] when the checkpoint's
    /// geometry is hostile (zero fields, a shard-state count that
    /// disagrees with it) or a re-attached observer is sized for a
    /// different shard count. Validation happens *before* any thread
    /// is spawned, so a checkpoint from untrusted bytes can never
    /// panic the engine.
    pub fn restore(checkpoint: EngineCheckpoint<E>) -> Result<Self, EngineError> {
        let sw = Stopwatch::start();
        checkpoint.validate()?;
        let states = checkpoint.shards.len() as u64;
        let engine = Self::spawn_all(
            checkpoint.config,
            fail_hard(),
            FaultPlan::none(),
            checkpoint.shards,
            checkpoint.tick,
        );
        if let Some(o) = &engine.config.observer {
            o.on_restore(engine.router.tick(), states, sw.elapsed_nanos());
        }
        Ok(engine)
    }
}

impl<E, T> Shards<E, T, true>
where
    E: BatchIngest<T> + Mergeable + Estimate + SpaceUsage + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    /// Supervised engine without injected faults.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when either config fails
    /// validation (this constructor never panics on geometry).
    pub fn new(
        config: EngineConfig,
        sup: SupervisorConfig,
        prototype: E,
    ) -> Result<Self, EngineError> {
        Self::with_faults(config, sup, FaultPlan::none(), prototype)
    }

    /// Supervised engine with a deterministic chaos plan.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when either config fails
    /// validation.
    pub fn with_faults(
        config: EngineConfig,
        sup: SupervisorConfig,
        plan: FaultPlan,
        prototype: E,
    ) -> Result<Self, EngineError> {
        config.validate()?;
        sup.validate()?;
        let states = vec![prototype; config.shards];
        Ok(Self::spawn_all(config, sup, plan, states, 0))
    }
}

/// The supervision knobs of the fail-hard name: no restarts.
fn fail_hard() -> SupervisorConfig {
    SupervisorConfig { max_restarts: 0, ..SupervisorConfig::default() }
}

impl<E, T, const HEAL: bool> Shards<E, T, HEAL>
where
    E: BatchIngest<T> + Mergeable + Estimate + SpaceUsage + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    /// Spawns one worker per state; `tick` is the restored stream
    /// offset (0 for a fresh engine). Under a nonzero restart budget
    /// each worker's first command is its spawn cut, so the clone runs
    /// on the worker thread, not here.
    fn spawn_all(
        config: EngineConfig,
        sup: SupervisorConfig,
        plan: FaultPlan,
        states: Vec<E>,
        tick: u64,
    ) -> Self {
        let plane = config
            .publish_interval
            .map(|interval| ReadPlane::new(config.shards, interval, config.observer.clone()));
        let mut engine = Self {
            router: Router::new(config.shards, config.batch_size, tick),
            plan: plan.faults.into_iter().map(|f| (f, false)).collect(),
            shards: (0..config.shards).map(|_| Shard::new(&sup)).collect(),
            plane,
            config,
            sup,
        };
        for (shard, state) in states.into_iter().enumerate() {
            engine.spawn(shard, state);
            engine.recovery_cut(shard);
        }
        engine
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Items buffered locally, not yet handed to any worker.
    #[must_use]
    pub fn buffered_items(&self) -> usize {
        self.router.buffered_items()
    }

    /// A cloneable, `&self` handle onto the engine's published views,
    /// or `None` when the engine was built without a
    /// `publish_interval`. Clone it into as many reader threads as you
    /// like; see [`ReadHandle`].
    #[must_use]
    pub fn read_handle(&self) -> Option<ReadHandle<E>> {
        self.plane.as_ref().map(ReadPlane::handle)
    }

    /// Forces a read-plane publish at the current stream offset and
    /// returns the epoch issued. `None` when the engine has no read
    /// plane, or once any shard is dead for good: an epoch completes
    /// only when every shard contributes, and a published view is never
    /// degraded. Flushes and heals first; a worker found dead while the
    /// markers go out is healed and handed its marker behind the
    /// replay. So the epoch covers exactly
    /// [`stream_offset`](Engine::stream_offset) items when it completes
    /// — asynchronously; pair with [`ReadHandle::wait_for_epoch`] when
    /// the completed view is needed.
    pub fn publish_now(&mut self) -> Option<u64> {
        self.plane.as_ref()?;
        self.flush();
        for shard in 0..self.shards.len() {
            self.ensure_live(shard);
        }
        if self.shards.iter().any(|s| s.terminal.is_some()) {
            return None;
        }
        let offset = self.router.tick();
        let epoch = self.plane.as_mut()?.begin_epoch(offset);
        for shard in 0..self.shards.len() {
            loop {
                let marker = Command::Cut(self.plane.as_ref()?.marker(shard, epoch, offset)?);
                if self.shards[shard].sender.as_ref().is_some_and(|tx| tx.send(marker).is_ok()) {
                    break;
                }
                self.join_lineage(shard);
                if !self.heal(shard) {
                    return None; // the issued epoch stays incomplete
                }
            }
        }
        Some(epoch)
    }

    /// The query path: flushes, cuts every shard, and merges the live
    /// ones. `strict` refuses once any shard is dead for good.
    fn merged(&mut self, strict: bool) -> Result<Degraded<E>, EngineError> {
        self.flush();
        let states = self.cut_states();
        if let Some(err) = self.first_dead_error().filter(|_| strict) {
            return Err(err);
        }
        let dead_shards = self.dead_shard_indices();
        if let Some(o) = &self.config.observer {
            let tick = self.router.tick();
            o.on_merge(tick, (self.shards.len() - dead_shards.len()) as u64);
            if !dead_shards.is_empty() {
                o.on_query_degraded(tick, dead_shards.len() as u64);
            }
        }
        let estimator = merge_all(states).ok_or(EngineError::AllShardsDead)?;
        // Surface the merged bank-kernel totals (router thread, query
        // boundary); a no-op when the kernel never ran.
        if let (Some(o), Some(bank)) = (&self.config.observer, estimator.bank_counters()) {
            if !bank.is_empty() {
                o.on_bank_batch(self.router.tick(), &bank);
            }
        }
        Ok(Degraded { estimator, dead_shards })
    }

    /// The retirement path: flushes, joins every worker, and merges the
    /// survivors. `strict` refuses once any shard is dead for good.
    fn retire(mut self, strict: bool) -> Result<Degraded<E>, EngineError> {
        let states = self.join_all();
        if let Some(err) = self.first_dead_error().filter(|_| strict) {
            return Err(err);
        }
        let dead_shards = self.dead_shard_indices();
        let estimator = merge_all(states).ok_or(EngineError::AllShardsDead)?;
        Ok(Degraded { estimator, dead_shards })
    }

    /// The first terminal shard as a reason-carrying error.
    fn first_dead_error(&self) -> Option<EngineError> {
        self.shards.iter().enumerate().find_map(|(shard, s)| {
            let reason = s.terminal.clone()?;
            Some(EngineError::ShardDead { shard, reason: Some(reason) })
        })
    }
}

/// The verb set, defined once for both names; the trait docs state the
/// contract every verb honours.
impl<E, T, const HEAL: bool> Engine<T> for Shards<E, T, HEAL>
where
    E: BatchIngest<T> + Mergeable + Estimate + SpaceUsage + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    type Output = E;
    type Error = EngineError;
    type Checkpoint = EngineCheckpoint<E>;
    type Report = QueryReport;

    /// Routes one item to its shard; hands the shard's batch to the
    /// worker when it reaches `batch_size` (blocking if that shard's
    /// queue is full), and publishes a read-plane epoch when one is
    /// due.
    fn ingest(&mut self, item: T) {
        if let Some((shard, batch)) = self.router.push(item) {
            self.dispatch(shard, batch);
        }
        if self.plane.as_ref().is_some_and(|p| p.due(self.router.tick())) {
            let _ = self.publish_now();
        }
    }

    /// Ingests every item of a slice, then notes the batch in the
    /// observer (one `PushBatch` event per call, not per item).
    fn ingest_batch(&mut self, items: &[T])
    where
        T: Copy,
    {
        for &item in items {
            self.ingest(item);
        }
        if let Some(o) = &self.config.observer {
            o.on_push_batch(self.router.tick(), items.len() as u64);
        }
    }

    /// Hands every pending partial batch to its shard, and fires due
    /// faults on shards with none pending (so a planned fault fires
    /// even on a shard that gets no further traffic).
    fn flush(&mut self) {
        for shard in 0..self.shards.len() {
            if let Some(o) = &self.config.observer {
                o.on_queue_depth(shard, self.router.pending(shard) as u64);
            }
            match self.router.take(shard) {
                Some(batch) => self.dispatch(shard, batch),
                None if self.shards[shard].terminal.is_none() => self.apply_faults(shard),
                None => {}
            }
        }
        if let Some(plane) = &self.plane {
            plane.note_offset(self.router.tick());
        }
    }

    /// Anytime query: flushes, cuts every shard *in place* (the
    /// workers keep running; down lineages heal first), and merges the
    /// clones into one estimator equivalent to one that ingested
    /// everything pushed so far. [`EngineError::ShardDead`] once any
    /// shard is dead for good — an exact answer no longer exists.
    fn query(&mut self) -> Result<E, EngineError> {
        self.merged(true).map(|d| d.estimator)
    }

    /// Lossy anytime query: merges whatever shards still live and names
    /// the dead ones. Only errs when *no* shard survives.
    fn query_degraded(&mut self) -> Result<Degraded<E>, EngineError> {
        self.merged(false)
    }

    /// Lossy anytime query packaged as a typed [`QueryReport`]. Always
    /// a *fresh* synchronous merge; for the published-view flavour
    /// (with epoch and staleness filled in) see [`ReadHandle::report`].
    fn report(&mut self, contract: Option<Guarantee>) -> Result<QueryReport, EngineError> {
        let degraded = self.query_degraded()?;
        Ok(QueryReport {
            estimate: degraded.estimator.estimate(),
            approx_contract: contract,
            space_words: self.space_words(),
            degraded: degraded.dead_shards,
            epoch: None,
            staleness: 0,
            obs: self.config.observer.as_ref().map(|o| Box::new(o.snapshot())),
        })
    }

    /// Checkpoint for crash recovery: flushes, cuts every shard, and
    /// returns the states with the geometry and the stream offset.
    /// Strict like `query` — a checkpoint taken after a shard died
    /// would silently drop that shard's history on restore. Supervision
    /// state (replay logs, budgets) is transient and not persisted.
    fn checkpoint(&mut self) -> Result<EngineCheckpoint<E>, EngineError> {
        let sw = Stopwatch::start();
        self.flush();
        let states = self.cut_states();
        if let Some(err) = self.first_dead_error() {
            return Err(err);
        }
        let shards: Vec<E> = states.into_iter().flatten().collect();
        debug_assert_eq!(shards.len(), self.config.shards);
        if let Some(o) = &self.config.observer {
            o.on_checkpoint(self.router.tick(), shards.len() as u64, sw.elapsed_nanos());
        }
        Ok(EngineCheckpoint {
            config: self.config.clone(),
            tick: self.router.tick(),
            shards,
        })
    }

    /// Retires the engine: flushes, joins all workers (healing through
    /// deaths on the last batches while the budget lasts), and returns
    /// the merged final estimator. Strict like `query`.
    fn finish(self) -> Result<E, EngineError> {
        self.retire(true).map(|d| d.estimator)
    }

    /// Lossy retirement: merges the shards that survived and names the
    /// dead ones. Only errs when no shard survives.
    fn finish_degraded(self) -> Result<Degraded<E>, EngineError> {
        self.retire(false)
    }

    fn stream_offset(&self) -> u64 {
        self.router.tick()
    }

    fn dead_shard_indices(&self) -> Vec<usize> {
        let shards = self.shards.iter().enumerate();
        shards.filter_map(|(i, s)| s.terminal.is_some().then_some(i)).collect()
    }
}

/// One ledger for both names. `space_words` is the whole pipeline: the
/// live shard estimators (read in place by a cut that clones nothing;
/// dead shards hold nothing), the bounded channel capacity and the
/// router's buffers (one word per item word), and the latest published
/// view. Recovery state — the retained bases and the replay logs — is
/// `scratch_words`: transient, and zero under a zero restart budget.
impl<E, T, const HEAL: bool> SpaceUsage for Shards<E, T, HEAL>
where
    E: BatchIngest<T> + Mergeable + Estimate + SpaceUsage + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    fn space_words(&self) -> usize {
        let replies: Vec<_> = (0..self.shards.len())
            .filter_map(|shard| self.cut(shard, |state: &E| state.space_words()))
            .collect();
        let shard_words: usize = replies.iter().filter_map(|rx| rx.recv().ok()).sum();
        let item_words = std::mem::size_of::<T>().div_ceil(std::mem::size_of::<u64>());
        let channel_words =
            self.config.shards * self.config.queue_depth * self.config.batch_size * item_words;
        let view_words = self
            .read_handle()
            .and_then(|h| h.query())
            .map_or(0, |v| v.estimator().space_words());
        shard_words + channel_words + self.buffered_items() * item_words + view_words
    }

    fn scratch_words(&self) -> usize {
        self.shards.iter().filter_map(|s| s.recovery.as_ref()).map(|r| r.words()).sum()
    }
}

impl<E, T, const HEAL: bool> Drop for Shards<E, T, HEAL> {
    fn drop(&mut self) {
        // Close every channel before joining any worker, so the shards
        // drain their queues concurrently.
        for s in &mut self.shards {
            s.sender = None;
        }
        for s in &mut self.shards {
            if let Some(handle) = s.handle.take() {
                let _ = handle.join();
            }
        }
        // `plane` drops with the struct, after the joins above — its
        // Drop joins the aggregator, which by then has no live sender.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_baseline::CashTable;
    use hindex_common::{Epsilon, Estimate, Snapshot};
    use hindex_core::ExponentialHistogram;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn staircase_updates(papers: u64, rounds: u64) -> Vec<(u64, u64)> {
        // Interleaved unit updates: paper p ends with `rounds` total.
        (0..rounds)
            .flat_map(|_| (0..papers).map(|p| (p, 1)))
            .collect()
    }

    #[test]
    fn cash_engine_matches_serial_exactly() {
        let updates = staircase_updates(50, 40); // h* = 40
        let mut serial = CashTable::new();
        for &(i, z) in &updates {
            serial.ingest(i, z);
        }
        for shards in [1usize, 2, 3, 8] {
            let config = EngineConfig {
                shards,
                batch_size: 64,
                queue_depth: 2,
                ..EngineConfig::default()
            };
            let mut engine = ShardedEngine::new(config, CashTable::new());
            engine.ingest_batch(&updates);
            let merged = engine.finish().unwrap();
            assert_eq!(merged.estimate(), serial.estimate(), "{shards} shards");
            assert_eq!(merged.distinct(), serial.distinct(), "{shards} shards");
        }
    }

    #[test]
    fn aggregate_engine_matches_serial() {
        let values: Vec<u64> = (0..500u64).map(|k| k % 97).collect();
        let mut serial = ExponentialHistogram::new(Epsilon::new(0.2).unwrap());
        serial.ingest_batch(&values);
        let mut engine = ShardedEngine::new(
            EngineConfig::with_shards(4),
            ExponentialHistogram::new(Epsilon::new(0.2).unwrap()),
        );
        engine.ingest_batch(&values);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.estimate(), serial.estimate());
        assert_eq!(merged.counters(), serial.counters());
    }

    #[test]
    fn anytime_query_sees_everything_pushed() {
        let mut engine = ShardedEngine::new(EngineConfig::with_shards(2), CashTable::new());
        for k in 0..990u64 {
            engine.ingest((k % 30, 1));
        }
        let early = engine.query().unwrap();
        // 30 papers × 33 citations: h = 30.
        assert_eq!(early.estimate(), 30);
        // Engine still ingests after a query.
        for k in 0..2_000u64 {
            engine.ingest((1_000 + k % 40, 1));
        }
        let done = engine.finish().unwrap();
        assert_eq!(done.estimate(), 40); // 40 papers @ 50 + 30 @ 33 → h = 40
    }

    #[test]
    fn turnstile_engine_matches_serial_exactly() {
        use hindex_common::{Delta, Epsilon, TurnstileEstimator};
        use hindex_core::TurnstileHIndex;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let proto = TurnstileHIndex::with_sampler_count(
            Epsilon::new(0.3).unwrap(),
            Delta::new(0.2).unwrap(),
            9,
            &mut StdRng::seed_from_u64(77),
        );
        // 30 papers at 20 citations, then 10 fully retracted — the
        // retraction may land on a different batch than the inserts.
        let mut updates: Vec<(u64, i64)> = (0..30u64).map(|p| (p, 20)).collect();
        updates.extend((0..10u64).map(|p| (p, -20)));
        let mut serial = proto.clone();
        for &(i, d) in &updates {
            TurnstileEstimator::ingest(&mut serial, i, d);
        }
        for shards in [1usize, 2, 4] {
            let config = EngineConfig {
                shards,
                batch_size: 16,
                queue_depth: 2,
                ..EngineConfig::default()
            };
            let mut engine = ShardedEngine::new(config, proto.clone());
            engine.ingest_batch(&updates);
            let merged = engine.finish().unwrap();
            // Linear sketches: merged state is bit-identical to the
            // serial stream, so estimates agree exactly.
            assert_eq!(merged.estimate(), serial.estimate(), "{shards} shards");
        }
    }

    #[test]
    fn space_accounts_for_shards_and_buffers() {
        let config = EngineConfig {
            shards: 2,
            batch_size: 8,
            queue_depth: 2,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, CashTable::new());
        for k in 0..100u64 {
            engine.ingest((k, 1));
        }
        let words = engine.space_words();
        let merged = engine.finish().unwrap();
        // Engine space at least covers the merged estimator's state
        // (shard duplication and channel capacity only add).
        assert!(words >= merged.space_words());
    }

    /// Exact table that panics on the poison paper id `u64::MAX` —
    /// a stand-in for any worker-side fault — and counts its clones
    /// across every copy of one prototype.
    #[derive(Debug, Default)]
    pub(crate) struct Exploding {
        pub(crate) table: CashTable,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for Exploding {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Self { table: self.table.clone(), clones: Arc::clone(&self.clones) }
        }
    }

    impl BatchIngest<(u64, u64)> for Exploding {
        fn apply_batch(&mut self, batch: &[(u64, u64)]) {
            for &(i, z) in batch {
                assert!(i != u64::MAX, "poison update");
                self.table.ingest(i, z);
            }
        }
    }

    impl Mergeable for Exploding {
        fn merge(&mut self, other: &Self) {
            self.table.merge(&other.table);
        }
    }

    impl Estimate for Exploding {
        fn estimate(&self) -> u64 {
            self.table.estimate()
        }
    }

    impl SpaceUsage for Exploding {
        fn space_words(&self) -> usize {
            self.table.space_words()
        }
    }

    // Regression: `space_words` used to clone every shard's state just
    // to read its size, so `report` cloned each shard twice.
    #[test]
    fn space_words_clones_nothing_and_report_clones_each_shard_once() {
        let shards = 3;
        let prototype = Exploding::default();
        let clones = Arc::clone(&prototype.clones);
        let mut engine = ShardedEngine::new(EngineConfig::with_shards(shards), prototype);
        for k in 0..500u64 {
            engine.ingest((k, 1));
        }
        let before = clones.load(Ordering::Relaxed);
        assert!(engine.space_words() > 0);
        assert_eq!(clones.load(Ordering::Relaxed) - before, 0, "space_words cloned a shard");
        let report = engine.report(None).unwrap();
        assert_eq!(report.estimate, 1);
        assert_eq!(clones.load(Ordering::Relaxed) - before, shards, "report clones once per shard");
    }

    #[test]
    fn dead_shard_is_a_typed_error_not_a_panic() {
        let config = EngineConfig {
            shards: 4,
            batch_size: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, Exploding::default());
        for k in 0..40u64 {
            engine.ingest((k, 1));
        }
        let poison_shard = (u64::MAX, 1u64).route(4, 0);
        engine.ingest((u64::MAX, 1));
        // Strict query refuses; the degraded query answers and names
        // the lost shard.
        let err = engine.query().unwrap_err();
        assert!(
            matches!(err, EngineError::ShardDead { shard, .. } if shard == poison_shard),
            "{err:?}"
        );
        // The worker's panic payload is harvested and surfaced.
        assert!(err.to_string().contains("poison update"), "{err}");
        let degraded = engine.query_degraded().unwrap();
        assert_eq!(degraded.dead_shards, vec![poison_shard]);
        assert!(degraded.estimator.table.estimate() > 0);
        // Checkpointing a wounded engine is refused too.
        assert!(matches!(engine.checkpoint(), Err(EngineError::ShardDead { .. })));
        let err = engine.finish().unwrap_err();
        assert!(
            matches!(err, EngineError::ShardDead { shard, .. } if shard == poison_shard),
            "{err:?}"
        );
        assert!(err.to_string().contains("poison update"), "{err}");
    }

    #[test]
    fn all_shards_dead_reported() {
        let config = EngineConfig {
            shards: 1,
            batch_size: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, Exploding::default());
        engine.ingest((u64::MAX, 1));
        assert_eq!(engine.query_degraded().unwrap_err(), EngineError::AllShardsDead);
        assert_eq!(engine.finish_degraded().unwrap_err(), EngineError::AllShardsDead);
    }

    #[test]
    fn pushes_after_death_do_not_panic() {
        let config = EngineConfig {
            shards: 2,
            batch_size: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, Exploding::default());
        engine.ingest((u64::MAX, 1));
        // Give the worker time to die, then keep pushing to both
        // shards: sends to the dead one are dropped, not panicked on.
        std::thread::sleep(std::time::Duration::from_millis(20));
        for k in 0..100u64 {
            engine.ingest((k, 1));
        }
        assert!(engine.finish().is_err());
    }

    // Regression: the fail-hard engine used to skip a dead shard's
    // marker and still return `Some(epoch)` — an epoch the aggregator,
    // which waits for every shard, can never complete.
    #[test]
    fn publish_now_refuses_once_a_shard_is_dead() {
        let config = EngineConfig {
            shards: 2,
            batch_size: 1,
            queue_depth: 1,
            publish_interval: Some(1 << 40),
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, Exploding::default());
        let reader = engine.read_handle().unwrap();
        for k in 0..20u64 {
            engine.ingest((k, 1));
        }
        let epoch = engine.publish_now().expect("every shard alive");
        assert!(reader.wait_for_epoch(epoch, 5_000), "aggregator stalled");
        engine.ingest((u64::MAX, 1));
        // The degraded query observes the death deterministically.
        assert_eq!(engine.query_degraded().unwrap().dead_shards.len(), 1);
        assert_eq!(engine.publish_now(), None);
        assert_eq!(reader.epoch(), epoch, "no view may publish without the dead shard");
    }

    #[test]
    fn checkpoint_restore_resumes_exactly() {
        let updates = staircase_updates(40, 30);
        let mut serial = CashTable::new();
        for &(i, z) in &updates {
            serial.ingest(i, z);
        }
        let config = EngineConfig {
            shards: 3,
            batch_size: 32,
            queue_depth: 2,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, CashTable::new());
        let cut = updates.len() / 2;
        engine.ingest_batch(&updates[..cut]);
        let checkpoint = engine.checkpoint().unwrap();
        assert_eq!(checkpoint.stream_offset(), cut as u64);
        drop(engine); // the crash
        // Round-trip the checkpoint through its binary form, as a real
        // recovery would.
        let bytes = checkpoint.to_bytes();
        let (restored, used) = EngineCheckpoint::<CashTable>::read_from(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        let mut engine = ShardedEngine::restore(restored).unwrap();
        assert_eq!(engine.stream_offset(), cut as u64);
        engine.ingest_batch(&updates[cut..]);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.estimate(), serial.estimate());
        assert_eq!(merged.distinct(), serial.distinct());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::<CashTable, (u64, u64)>::new(
            EngineConfig {
                shards: 0,
                batch_size: 1,
                queue_depth: 1,
                ..EngineConfig::default()
            },
            CashTable::new(),
        );
    }

    /// The fail-hard constructor runs the supervised one's validation:
    /// a zero publish interval would publish after every item.
    #[test]
    #[should_panic(expected = "publish_interval must be ≥ 1 when set")]
    fn zero_publish_interval_rejected() {
        let config = EngineConfig {
            batch_size: 64,
            queue_depth: 2,
            publish_interval: Some(0),
            ..EngineConfig::with_shards(2)
        };
        let _ = ShardedEngine::<CashTable, (u64, u64)>::new(config, CashTable::new());
    }

    /// A one-shard observer on a four-shard engine would drop three
    /// shards' counts; the fail-hard constructor refuses it.
    #[test]
    #[should_panic(expected = "observer sized for a different shard count")]
    fn mis_sized_observer_rejected() {
        let config = EngineConfig::with_shards(4)
            .with_observer(Arc::new(hindex_obs::EngineObserver::new(1)));
        let _ = ShardedEngine::<CashTable, (u64, u64)>::new(config, CashTable::new());
    }

    #[test]
    fn published_views_are_bit_identical_to_serial_prefixes() {
        let interval = 256u64;
        let config = EngineConfig {
            shards: 3,
            batch_size: 16,
            queue_depth: 2,
            publish_interval: Some(interval),
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, CashTable::new());
        let reader = engine.read_handle().unwrap();
        // Serial prefix digests at every possible publish offset.
        let mut serial = CashTable::new();
        let mut prefix = std::collections::HashMap::new();
        prefix.insert(0u64, serial.frame_digest());
        for k in 0..2_000u64 {
            serial.ingest(k % 90, 1);
            prefix.insert(k + 1, serial.frame_digest());
        }
        for k in 0..2_000u64 {
            engine.ingest((k % 90, 1));
        }
        let epoch = engine.publish_now().unwrap();
        assert!(reader.wait_for_epoch(epoch, 5_000), "aggregator stalled");
        let view = reader.query().unwrap();
        assert_eq!(view.offset(), 2_000);
        assert_eq!(view.staleness(), 0);
        assert_eq!(view.estimator().frame_digest(), prefix[&view.offset()]);
        // The engine also auto-published along the way; every epoch is
        // at an interval boundary and the final query agrees with the
        // last published view.
        assert!(reader.epoch() >= 2_000 / interval);
        let final_digest = engine.finish().unwrap().frame_digest();
        assert_eq!(final_digest, prefix[&2_000]);
    }

    #[test]
    fn engine_without_read_plane_has_no_handle() {
        let engine = ShardedEngine::new(EngineConfig::with_shards(2), CashTable::new());
        assert!(engine.read_handle().is_none());
        let _ = engine.finish().unwrap();
    }

    /// Drive both engine names through the `Engine` trait: the generic
    /// driver below cannot name either concrete type.
    fn drive_generic<N>(mut engine: N) -> (u64, u64)
    where
        N: Engine<(u64, u64), Output = CashTable, Error = EngineError>,
    {
        for k in 0..900u64 {
            engine.ingest((k % 30, 1));
        }
        engine.flush();
        let h = engine.query().unwrap().estimate();
        let offset = engine.stream_offset();
        assert!(engine.dead_shard_indices().is_empty());
        let fin = engine.finish().unwrap();
        assert_eq!(fin.estimate(), h);
        (h, offset)
    }

    #[test]
    fn both_policies_speak_the_engine_trait() {
        let plain = ShardedEngine::new(EngineConfig::with_shards(2), CashTable::new());
        let supervised = SupervisedEngine::new(
            EngineConfig::with_shards(2),
            SupervisorConfig::default(),
            CashTable::new(),
        )
        .unwrap();
        assert_eq!(drive_generic(plain), drive_generic(supervised));
    }
}
