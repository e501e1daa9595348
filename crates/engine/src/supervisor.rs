//! The lifecycle layer: how batches reach workers, how a worker's
//! death is handled, and how a shard heals.
//!
//! Every [`Shards`] engine runs this one path; the restart budget
//! ([`SupervisorConfig::max_restarts`]) decides how much of it a shard
//! can use. With a nonzero budget there are three additions over a
//! plain handoff:
//!
//! 1. **Recovery cuts.** The router sends each worker a recovery cut —
//!    a [`Command::Cut`] whose sink clones the state into the shard's
//!    base channel, tagged with its batch ordinal — as its first
//!    command, and again after every
//!    [`SupervisorConfig::checkpoint_interval`] logged batches. The
//!    clone runs on the *worker* thread at the cut's place in the
//!    FIFO, so the router never stalls for it, and it covers exactly
//!    the batches below its ordinal. Bases are drained at dispatch
//!    boundaries and synchronously after every join and query.
//! 2. **Replay logs.** Every batch dispatched to a shard is also
//!    appended to that shard's bounded [`ReplayLog`]; a base at batch
//!    ordinal *n* lets the log discard everything below *n*.
//! 3. **Heal.** When a worker dies (panic, injected kill, failed
//!    send), the engine joins it, harvests the panic payload, clones the
//!    newest retained base into a fresh worker, and replays the log
//!    suffix — FIFO order makes the healed shard **bit-identical** to
//!    one that never crashed. The base stays retained, so a lineage
//!    that dies again before its next cut heals from it too.
//!
//! With a budget of zero none of that exists: no recovery cuts, no
//! log, each batch moves to its worker, and the first death is
//! terminal.
//!
//! The degradation ladder when healing cannot proceed (restart budget
//! exhausted, no base yet, replay log overflowed past the newest base)
//! is *honest*: the shard goes terminal
//! ([`EngineError::ShardDead`](crate::EngineError::ShardDead) with the
//! harvested reason), its never-delivered updates are counted as lost,
//! and strict queries refuse rather than silently under-count. See
//! `docs/RECOVERY.md`.
//!
//! # Determinism
//!
//! Fault decisions, cut ordinals, heal points, base contents, and
//! replay suffixes are all pure functions of the input stream and the
//! [`FaultPlan`] — worker scheduling only affects *when* bases are
//! drained, never which base is newest at a join (joins synchronise
//! the drain, because a dead worker's bases are all already in its
//! channel). Identical seeded runs therefore produce identical merged
//! states, restart counts, and event traces; the only racy observables
//! are gauge readings taken mid-run, same as queue depths.
//!
//! # The read plane under supervision
//!
//! A publish is **refused** (`publish_now` returns `None`) while any
//! shard is terminal — a published view is *never* degraded. Epoch
//! markers are not replay-logged: a worker that dies holding its
//! marker takes the epoch down with it (the aggregator discards the
//! incomplete epoch), so a kill-and-heal can delay publication but can
//! never surface a non-healed view. `tests/engine_faults.rs` pins
//! this.
//!
//! [`Shards`]: crate::Shards
//! [`FaultPlan`]: crate::FaultPlan
//! [`Command::Cut`]: crate::runtime::Command

use crate::config::SupervisorConfig;
use crate::error::panic_message;
use crate::faults::FaultKind;
use crate::replay::ReplayLog;
use crate::runtime::{spawn_worker, Command};
use crate::{BatchIngest, Engine, Routable, Shards};
use hindex_common::{Estimate, Mergeable, SpaceUsage};
use hindex_obs::Stopwatch;
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

/// The ladder rung for a shard with nothing to heal from.
const NO_BASE: &str = "no recovery base yet";

/// A recovery base: a shard state cut after the batches below
/// `ordinal`.
struct Base<E> {
    ordinal: u64,
    state: E,
}

/// A shard's recovery state under a nonzero restart budget.
pub(crate) struct Recovery<E, T> {
    /// The shard's base channel; every recovery sink holds a clone of
    /// the sender, whichever lineage runs it.
    base_tx: Sender<Base<E>>,
    bases: Receiver<Base<E>>,
    log: ReplayLog<T>,
    /// Newest drained base: heal clones it and keeps it.
    base: Option<Base<E>>,
    /// Ordinal of the newest recovery cut sent; `None` before the
    /// spawn cut.
    last_cut: Option<u64>,
}

impl<E: Clone + Send + 'static, T: Clone> Recovery<E, T> {
    /// The newest usable restart point: a clone of the newest base,
    /// provided the log still covers every batch after it.
    fn restart_point(&self) -> Result<(u64, E), &'static str> {
        let base = self.base.as_ref().ok_or(NO_BASE)?;
        if base.ordinal < self.log.start() {
            return Err("replay log overflowed past the newest recovery base");
        }
        Ok((base.ordinal, base.state.clone()))
    }

    /// A recovery cut at the log's next ordinal, when one is due: the
    /// lineage has then been handed every batch below that ordinal.
    fn cut_if_due(&mut self, interval: u64) -> Option<Command<E, T>> {
        let ordinal = self.log.next();
        if self.last_cut.is_some_and(|last| ordinal - last < interval) {
            return None;
        }
        self.last_cut = Some(ordinal);
        let bases = self.base_tx.clone();
        Some(Command::Cut(Box::new(move |state: &E| {
            // The engine owns the receiver for the shard's lifetime.
            let _ = bases.send(Base { ordinal, state: state.clone() });
        })))
    }
}

impl<E: SpaceUsage, T: Clone> Recovery<E, T> {
    /// Words held: the replay log plus the retained base.
    pub(crate) fn words(&self) -> usize {
        self.log.words() + self.base.as_ref().map_or(0, |b| b.state.space_words())
    }
}

/// Everything the engine tracks per shard.
pub(crate) struct Shard<E, T> {
    pub(crate) sender: Option<SyncSender<Command<E, T>>>,
    pub(crate) handle: Option<JoinHandle<E>>,
    /// Bases and replay log; `None` under a zero restart budget.
    pub(crate) recovery: Option<Recovery<E, T>>,
    /// Worker deaths observed (panics only, not clean retirements).
    deaths: u64,
    /// Restarts consumed from [`SupervisorConfig::max_restarts`].
    restarts: u32,
    /// Injected send failures still owed.
    fail_remaining: u64,
    /// Most recent harvested panic payload.
    last_reason: Option<String>,
    /// Terminal death reason; `Some` = the shard is gone for good.
    pub(crate) terminal: Option<String>,
}

impl<E, T: Clone> Shard<E, T> {
    /// A shard with no lineage yet; it keeps recovery state only when
    /// it has restarts to spend.
    pub(crate) fn new(sup: &SupervisorConfig) -> Self {
        let recovery = (sup.max_restarts > 0).then(|| {
            let (base_tx, bases) = channel();
            Recovery {
                base_tx,
                bases,
                log: ReplayLog::new(sup.max_replay_words),
                base: None,
                last_cut: None,
            }
        });
        Self {
            sender: None,
            handle: None,
            recovery,
            deaths: 0,
            restarts: 0,
            fail_remaining: 0,
            last_reason: None,
            terminal: None,
        }
    }
}

impl<E, T, const HEAL: bool> Shards<E, T, HEAL>
where
    E: BatchIngest<T> + Mergeable + Estimate + SpaceUsage + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    /// Spawns a worker for `shard` owning `state`.
    pub(crate) fn spawn(&mut self, shard: usize, state: E) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let lineage = spawn_worker(self.config.queue_depth, state);
        let s = &mut self.shards[shard];
        s.sender = Some(lineage.sender);
        s.handle = Some(lineage.handle);
    }

    /// Sends `shard`'s live lineage a recovery cut when one is due: the
    /// spawn cut, then one every `checkpoint_interval` logged batches.
    /// Call it only after a hand-off, so the lineage holds every logged
    /// batch. A no-op under a zero restart budget.
    pub(crate) fn recovery_cut(&mut self, shard: usize) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let s = &mut self.shards[shard];
        let (Some(tx), Some(r)) = (&s.sender, &mut s.recovery) else { return };
        if let Some(cut) = r.cut_if_due(self.sup.checkpoint_interval) {
            // A lineage that died meanwhile drops the cut; its heal
            // uses the older base.
            let _ = tx.send(cut);
        }
    }

    /// Counts `items` routed to `shard` that no worker will apply.
    fn lost(&self, shard: usize, items: u64) {
        if let Some(o) = &self.config.observer {
            o.on_batch_lost(self.router.tick(), shard, items);
        }
    }

    /// The one delivery path: fire due faults, log the batch (when
    /// healing), drain bases, then hand it over — directly to a live
    /// lineage, followed by a recovery cut when one is due, or by
    /// heal-and-replay to a down one. A flush is recorded only once the
    /// batch reaches a worker; a batch that cannot is counted lost, so
    /// flushed-item telemetry never counts updates that no estimator
    /// ingested.
    pub(crate) fn dispatch(&mut self, shard: usize, batch: Vec<T>) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let len = batch.len() as u64;
        let full = batch.len() >= self.config.batch_size;
        if self.shards[shard].terminal.is_some() {
            return self.lost(shard, len);
        }
        self.apply_faults(shard);
        if let Some(r) = &mut self.shards[shard].recovery {
            // Log first: the log is the source of truth for recovery,
            // so the batch must be held before any delivery attempt.
            let evicted = r.log.push(batch.clone());
            if evicted.entries > 0 {
                if let Some(o) = &self.config.observer {
                    o.on_replay_overflow(self.router.tick(), shard, evicted.entries);
                }
            }
            if evicted.undelivered_items > 0 {
                // Updates that never reached any worker just left the
                // log: the shard can no longer become correct.
                self.lost(shard, evicted.undelivered_items);
                return self.terminal(shard, "replay log overflowed past undelivered batches");
            }
        }
        self.drain_bases(shard);
        let s = &mut self.shards[shard];
        if s.fail_remaining > 0 {
            // An injected send failure retires the lineage; the batch
            // waits in the log, and the eventual heal replays a
            // contiguous suffix (delivering around a dropped batch
            // would fork the shard's stream). Without a log it is lost.
            s.fail_remaining -= 1;
            self.join_lineage(shard);
            if self.shards[shard].recovery.is_none() {
                self.lost(shard, len);
            }
            return;
        }
        if s.sender.as_ref().is_some_and(|tx| tx.send(Command::Batch(batch)).is_ok()) {
            if let Some(r) = &mut s.recovery {
                r.log.mark_newest_delivered();
            }
            self.recovery_cut(shard);
            if let Some(o) = &self.config.observer {
                o.on_flush(self.router.tick(), shard, len, full);
            }
            if let Some(plane) = &self.plane {
                plane.note_offset(self.router.tick());
            }
            return;
        }
        // The lineage is down, or its worker died on its own (an
        // estimator bug): join it, then heal — the replay redelivers
        // this batch and records its flush. With no log the heal goes
        // terminal and the batch is lost.
        self.join_lineage(shard);
        if !self.heal(shard) && self.shards[shard].recovery.is_none() {
            self.lost(shard, len);
        }
    }

    /// Fires every not-yet-fired planned fault targeting `shard` whose
    /// tick has arrived. Pure function of (plan, tick): deterministic.
    pub(crate) fn apply_faults(&mut self, shard: usize) {
        let tick = self.router.tick();
        for i in 0..self.plan.len() {
            let (fault, fired) = self.plan[i];
            if fired || fault.shard != shard || fault.tick > tick {
                continue;
            }
            self.plan[i].1 = true;
            if let Some(o) = &self.config.observer {
                o.on_fault_injected(tick, u32::try_from(shard).ok(), fault.kind.code());
            }
            let s = &mut self.shards[shard];
            match fault.kind {
                FaultKind::Kill => {
                    if let Some(tx) = &s.sender {
                        // Queued behind every in-flight batch: the
                        // worker applies them all, then panics — the
                        // genuine crash path, FIFO-deterministic.
                        let _ = tx.send(Command::Poison(format!(
                            "kill shard {shard} at tick {}",
                            fault.tick
                        )));
                    }
                    self.join_lineage(shard);
                }
                FaultKind::FailSends => {
                    s.fail_remaining = s.fail_remaining.saturating_add(fault.arg);
                }
                FaultKind::Stall => {
                    if let Some(tx) = &s.sender {
                        let _ = tx.send(Command::Stall(fault.arg));
                    }
                }
            }
        }
    }

    /// Non-blocking drain of `shard`'s base channel: retain the newest
    /// base and trim the log to its ordinal. Cuts run in FIFO order, so
    /// bases arrive in ordinal order.
    fn drain_bases(&mut self, shard: usize) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let Some(r) = &mut self.shards[shard].recovery else { return };
        let obs = &self.config.observer;
        while let Ok(base) = r.bases.try_recv() {
            if let Some(o) = obs {
                o.on_micro_checkpoint(shard);
            }
            r.log.trim_to(base.ordinal);
            r.base = Some(base);
        }
        if let Some(o) = obs {
            o.on_replay_words(shard, r.log.words() as u64);
        }
    }

    /// The one worker-death path. Closes `shard`'s channel and joins
    /// its worker: the final state on a clean exit; on a panic, records
    /// the death (payload, trace) and returns `None`. Drains the bases
    /// the lineage cut either way. Call it only once the worker has
    /// been told to stop or has provably exited (a send or receive on
    /// its channels failed), so the join cannot block for long.
    pub(crate) fn join_lineage(&mut self, shard: usize) -> Option<E> {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let s = &mut self.shards[shard];
        s.sender = None;
        let state = match s.handle.take()?.join() {
            Ok(state) => Some(state),
            Err(payload) => {
                s.deaths += 1;
                s.last_reason = Some(panic_message(payload.as_ref()));
                if let Some(o) = &self.config.observer {
                    o.on_shard_panicked(self.router.tick(), shard, s.deaths);
                }
                None
            }
        };
        self.drain_bases(shard);
        state
    }

    /// Declares `shard` terminally dead and counts its never-delivered
    /// logged updates as lost.
    fn terminal(&mut self, shard: usize, what: &str) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let s = &mut self.shards[shard];
        s.sender = None;
        s.terminal = Some(match &s.last_reason {
            Some(panic) => format!("{panic} ({what})"),
            None => what.to_string(),
        });
        let lost = s.recovery.as_ref().map_or(0, |r| r.log.undelivered_items());
        if lost > 0 {
            self.lost(shard, lost);
        }
    }

    /// Restart from the retained base with replay. Returns `true` when
    /// the shard is live again; `false` means it went terminal.
    ///
    /// Loops because a replayed batch can re-kill the worker (a
    /// deterministic estimator bug): each attempt consumes one restart
    /// from the budget until the budget, the base, or the log gives
    /// out — the degradation ladder's last rungs. A zero budget goes
    /// terminal at once.
    pub(crate) fn heal(&mut self, shard: usize) -> bool {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let sw = Stopwatch::start();
        loop {
            let s = &self.shards[shard];
            debug_assert!(s.sender.is_none(), "heal a down lineage only");
            if s.terminal.is_some() {
                return false;
            }
            if s.restarts >= self.sup.max_restarts {
                self.terminal(shard, "restart budget exhausted");
                return false;
            }
            let point = s.recovery.as_ref().map_or(Err(NO_BASE), Recovery::restart_point);
            let (base, state) = match point {
                Ok(point) => point,
                Err(what) => {
                    self.terminal(shard, what);
                    return false;
                }
            };
            self.shards[shard].restarts += 1;
            if self.sup.backoff_ms > 0 {
                // Exponential backoff, capped at 64× the base.
                let shift = self.shards[shard].restarts.saturating_sub(1).min(6);
                std::thread::sleep(std::time::Duration::from_millis(self.sup.backoff_ms << shift));
            }
            self.spawn(shard, state);
            // Only batches are replayed — epoch markers are not logged,
            // so a healed lineage never re-contributes to an old epoch.
            let s = &mut self.shards[shard];
            let replay = s.recovery.as_ref().map_or_else(Vec::new, |r| r.log.replay_from(base));
            let mut newly_flushed: Vec<u64> = Vec::new();
            let mut replayed = 0u64;
            let mut died_mid_replay = false;
            if let Some(tx) = &s.sender {
                for (_, batch, delivered) in replay {
                    let len = batch.len() as u64;
                    if tx.send(Command::Batch(batch)).is_err() {
                        died_mid_replay = true;
                        break;
                    }
                    replayed += 1;
                    if !delivered {
                        newly_flushed.push(len);
                    }
                }
            }
            if died_mid_replay {
                self.join_lineage(shard);
                continue;
            }
            let log_words = s.recovery.as_mut().map_or(0, |r| {
                r.log.mark_all_delivered();
                r.log.words()
            });
            if let Some(o) = &self.config.observer {
                // First-successful-handoff accounting: batches the dead
                // lineage already flushed are not re-counted; batches
                // delivered for the first time by this replay are.
                let tick = self.router.tick();
                for len in newly_flushed {
                    o.on_flush(tick, shard, len, len >= self.config.batch_size as u64);
                }
                o.on_shard_restart(tick, shard, replayed, sw.elapsed_nanos());
                o.on_replay_words(shard, log_words as u64);
            }
            return true;
        }
    }

    /// Brings a down-but-healable lineage back up. Terminal shards stay
    /// down.
    pub(crate) fn ensure_live(&mut self, shard: usize) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let s = &self.shards[shard];
        if s.terminal.is_none() && s.sender.is_none() {
            self.heal(shard);
        }
    }

    /// Cuts `shard`'s live worker in place: `read` runs on its state
    /// and the result arrives on the returned channel. `None` when the
    /// lineage is down; the channel disconnects if it dies first.
    pub(crate) fn cut<R: Send + 'static>(
        &self,
        shard: usize,
        read: impl FnOnce(&E) -> R + Send + 'static,
    ) -> Option<Receiver<R>> {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let (reply_tx, reply_rx) = channel();
        let sink = Box::new(move |state: &E| {
            // The query side may have given up (dropped receiver);
            // ingestion must not die with it.
            let _ = reply_tx.send(read(state));
        });
        let tx = self.shards[shard].sender.as_ref()?;
        tx.send(Command::Cut(sink)).ok()?;
        Some(reply_rx)
    }

    /// Clones every shard's state in place, in shard order; `None` =
    /// terminal. Cuts are *pipelined*: all go out before any reply is
    /// awaited, so the shards clone concurrently and a query stalls
    /// ingestion for one clone's worth of time, not `shards` of them. A
    /// lineage that is down, or dies before replying, is healed and cut
    /// again; each heal spends budget, so every shard ends up answering
    /// or terminal. A reply also means every earlier recovery cut has
    /// run, so its base is drained here.
    pub(crate) fn cut_states(&mut self) -> Vec<Option<E>> {
        let replies: Vec<_> = (0..self.shards.len())
            .map(|shard| {
                self.ensure_live(shard);
                self.cut(shard, E::clone)
            })
            .collect();
        let mut states = Vec::with_capacity(replies.len());
        for (shard, reply) in replies.into_iter().enumerate() {
            let mut state = reply.and_then(|rx| rx.recv().ok());
            while state.is_none() && self.shards[shard].terminal.is_none() {
                self.join_lineage(shard);
                state = if self.heal(shard) {
                    self.cut(shard, E::clone).and_then(|rx| rx.recv().ok())
                } else {
                    None
                };
            }
            self.drain_bases(shard);
            states.push(state);
        }
        states
    }

    /// Flushes, closes every channel, and joins every worker for its
    /// final state (shard order, `None` = terminal), healing through
    /// deaths on the last batches while the budget lasts.
    pub(crate) fn join_all(&mut self) -> Vec<Option<E>> {
        self.flush();
        for shard in 0..self.shards.len() {
            self.ensure_live(shard);
        }
        // Close every channel before joining any worker, so the shards
        // drain their queues concurrently.
        for s in &mut self.shards {
            s.sender = None;
        }
        (0..self.shards.len())
            .map(|shard| {
                while self.shards[shard].terminal.is_none() {
                    if let Some(state) = self.join_lineage(shard) {
                        return Some(state);
                    }
                    self.heal(shard);
                }
                None
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Exploding;
    use crate::{EngineConfig, EngineError, FaultPlan, SupervisedEngine};
    use hindex_baseline::CashTable;
    use hindex_common::{CashRegisterEstimator, Estimate, Snapshot};

    fn staircase(papers: u64, rounds: u64) -> Vec<(u64, u64)> {
        (0..rounds).flat_map(|_| (0..papers).map(|p| (p, 1))).collect()
    }

    fn small_config(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            batch_size: 16,
            queue_depth: 2,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn fault_free_supervised_run_matches_plain() {
        let updates = staircase(40, 30);
        let mut plain = ShardedEngineRef::run(&updates);
        let mut engine =
            SupervisedEngine::new(small_config(3), SupervisorConfig::default(), CashTable::new())
                .unwrap();
        engine.ingest_batch(&updates);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.frame_digest(), plain.frame_digest());
        // Anytime queries work too.
        let mut engine =
            SupervisedEngine::new(small_config(3), SupervisorConfig::default(), CashTable::new())
                .unwrap();
        engine.ingest_batch(&updates);
        assert_eq!(engine.query().unwrap().estimate(), plain.estimate());
        let _ = &mut plain;
    }

    /// Serial reference: merge-equivalent state for a staircase run.
    struct ShardedEngineRef;
    impl ShardedEngineRef {
        fn run(updates: &[(u64, u64)]) -> CashTable {
            let mut t = CashTable::new();
            for &(i, z) in updates {
                t.ingest(i, z);
            }
            t
        }
    }

    #[test]
    fn kill_sweep_recovers_bit_identically() {
        let updates = staircase(40, 40);
        let clean = ShardedEngineRef::run(&updates);
        for shards in [1usize, 2, 4] {
            let plan = FaultPlan::kill_sweep(shards, 100, 317);
            assert!(plan.kills_every_shard(shards));
            let mut engine = SupervisedEngine::with_faults(
                small_config(shards),
                SupervisorConfig::default(),
                plan,
                CashTable::new(),
            )
            .unwrap();
            engine.ingest_batch(&updates);
            assert_eq!(engine.dead_shard_indices(), Vec::<usize>::new());
            let merged = engine.finish().unwrap();
            assert_eq!(
                merged.frame_digest(),
                clean.frame_digest(),
                "{shards} shards: healed state must be bit-identical"
            );
        }
    }

    #[test]
    fn every_fault_kind_recovers_exactly() {
        let updates = staircase(40, 40);
        let clean = ShardedEngineRef::run(&updates);
        let plan = FaultPlan::parse(
            "kill@100:0, fail@300:1=2, stall@200:2=5, kill@900:0",
            3,
            updates.len() as u64,
        )
        .unwrap();
        let mut engine = SupervisedEngine::with_faults(
            small_config(3),
            SupervisorConfig::default(),
            plan,
            CashTable::new(),
        )
        .unwrap();
        engine.ingest_batch(&updates);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.frame_digest(), clean.frame_digest());
    }

    #[test]
    fn restart_budget_exhaustion_is_honest() {
        // Poison the estimator itself: every heal replays the poison
        // batch and dies again until the budget gives out.
        let config = EngineConfig {
            shards: 1,
            batch_size: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        };
        let sup = SupervisorConfig { max_restarts: 2, ..SupervisorConfig::default() };
        let mut engine =
            SupervisedEngine::with_faults(config, sup, FaultPlan::none(), Exploding::default())
                .unwrap();
        for k in 0..8u64 {
            engine.ingest((k, 1));
        }
        engine.ingest((u64::MAX, 1)); // the deterministic bug
        engine.ingest((1, 1)); // forces death detection + heal attempts
        engine.flush();
        let err = engine.finish().unwrap_err();
        assert!(
            matches!(err, EngineError::ShardDead { shard: 0, .. }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("poison update"), "{msg}");
        assert!(msg.contains("restart budget exhausted"), "{msg}");
    }

    #[test]
    fn replay_overflow_degrades_honestly() {
        // A replay budget of 1 word with fail-faults forces undelivered
        // batches out of the log: terminal, never silently wrong.
        let config = EngineConfig {
            shards: 1,
            batch_size: 4,
            queue_depth: 2,
            ..EngineConfig::default()
        };
        let sup = SupervisorConfig {
            max_replay_words: 1,
            checkpoint_interval: 1,
            ..SupervisorConfig::default()
        };
        let plan = FaultPlan::parse("fail@0:0=1000", 1, 10_000).unwrap();
        let mut engine =
            SupervisedEngine::with_faults(config, sup, plan, CashTable::new()).unwrap();
        for k in 0..200u64 {
            engine.ingest((k, 1));
        }
        engine.flush();
        assert_eq!(engine.dead_shard_indices(), vec![0]);
        let err = engine.finish().unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn the_base_survives_a_heal() {
        // Interval so large only the spawn cut is ever taken: both
        // heals must start from that one base, so the first must clone
        // it, not move it into the worker.
        let observer = std::sync::Arc::new(hindex_obs::EngineObserver::new(1));
        let config = EngineConfig {
            shards: 1,
            batch_size: 16,
            ..EngineConfig::default()
        }
        .with_observer(std::sync::Arc::clone(&observer));
        let sup = SupervisorConfig { checkpoint_interval: 1 << 40, ..SupervisorConfig::default() };
        let plan = FaultPlan::parse("kill@500:0, kill@1500:0", 1, 4_000).unwrap();
        let updates: Vec<(u64, u64)> = (0..4_000u64).map(|k| (k % 170, 1 + k % 3)).collect();
        let mut engine =
            SupervisedEngine::with_faults(config, sup, plan, CashTable::new()).unwrap();
        engine.ingest_batch(&updates);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.frame_digest(), ShardedEngineRef::run(&updates).frame_digest());
        let metrics = observer.snapshot();
        assert_eq!(metrics.restarts, 2);
        // Both replays start at ordinal 0: batches 0..=31, then 0..=93.
        assert_eq!(metrics.replayed_batches, 32 + 94);
    }

    #[test]
    fn replay_log_reports_as_scratch_not_space() {
        let sup = SupervisorConfig { checkpoint_interval: 1 << 40, ..SupervisorConfig::default() };
        let mut engine =
            SupervisedEngine::new(small_config(2), sup, CashTable::new()).unwrap();
        for k in 0..500u64 {
            engine.ingest((k, 1));
        }
        engine.flush();
        // With an astronomically large interval nothing trims the log,
        // so dispatched batches are all held as scratch.
        assert!(engine.scratch_words() > 0);
        assert!(engine.space_words() > 0);
        assert!(engine.finish().is_ok());
    }

    #[test]
    fn supervised_checkpoint_restores_into_plain_engine() {
        let updates = staircase(40, 30);
        let serial = ShardedEngineRef::run(&updates);
        let mut engine =
            SupervisedEngine::new(small_config(3), SupervisorConfig::default(), CashTable::new())
                .unwrap();
        let cut = updates.len() / 2;
        engine.ingest_batch(&updates[..cut]);
        let checkpoint = engine.checkpoint().unwrap();
        assert_eq!(checkpoint.stream_offset(), cut as u64);
        drop(engine);
        // Cross-policy recovery: a supervised checkpoint resumes on the
        // plain engine (same format, same routing, same offset).
        let mut resumed = crate::ShardedEngine::restore(checkpoint).unwrap();
        resumed.ingest_batch(&updates[cut..]);
        let merged = resumed.finish().unwrap();
        assert_eq!(merged.frame_digest(), serial.frame_digest());
    }

    #[test]
    fn supervised_read_plane_publishes_clean_views() {
        let updates = staircase(40, 40);
        let serial = ShardedEngineRef::run(&updates);
        let config = EngineConfig {
            publish_interval: Some(300),
            ..small_config(2)
        };
        let mut engine =
            SupervisedEngine::new(config, SupervisorConfig::default(), CashTable::new()).unwrap();
        let reader = engine.read_handle().unwrap();
        engine.ingest_batch(&updates);
        let epoch = engine.publish_now().unwrap();
        assert!(reader.wait_for_epoch(epoch, 5_000), "aggregator stalled");
        let view = reader.query().unwrap();
        assert_eq!(view.offset(), updates.len() as u64);
        assert_eq!(view.estimator().frame_digest(), serial.frame_digest());
        assert_eq!(engine.finish().unwrap().frame_digest(), serial.frame_digest());
    }
}
