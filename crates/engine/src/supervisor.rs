//! The lifecycle layer: how batches reach workers, how a worker's
//! death is handled, and how a shard heals.
//!
//! Every [`Shards`] engine runs this one path; the restart budget
//! ([`SupervisorConfig::max_restarts`]) decides how much of it a shard
//! can use. With a nonzero budget there are three additions over a
//! plain handoff:
//!
//! 1. **Micro-checkpoints.** Every worker encodes its estimator state
//!    (a [`Snapshot`] frame) once at spawn and then every
//!    [`SupervisorConfig::checkpoint_interval`] applied batches, on the
//!    *worker* thread — the router never stalls for encoding. Frame
//!    emission is the `on_applied` hook of the worker's [`WorkerCtx`].
//!    Frames flow back over an unbounded channel and are drained at
//!    dispatch boundaries and synchronously after every join.
//! 2. **Replay logs.** Every batch dispatched to a shard is also
//!    appended to that shard's bounded [`ReplayLog`]; a frame at batch
//!    ordinal *n* lets the log discard everything below *n*.
//! 3. **Heal.** When a worker dies (panic, injected kill, failed
//!    send), the engine joins it, harvests the panic payload, decodes
//!    the newest checksum-valid frame, respawns the shard from it, and
//!    replays the log suffix — FIFO order makes the healed shard
//!    **bit-identical** to one that never crashed.
//!
//! With a budget of zero none of that exists: no frame hook, no log,
//! each batch moves to its worker, and the first death is terminal.
//!
//! The degradation ladder when healing cannot proceed (restart budget
//! exhausted, replay log overflowed past the newest frame, no
//! decodable frame) is *honest*: the shard goes terminal
//! ([`EngineError::ShardDead`](crate::EngineError::ShardDead) with the
//! harvested reason), its never-delivered updates are counted as lost,
//! and strict queries refuse rather than silently under-count. See
//! `docs/RECOVERY.md`.
//!
//! # Determinism
//!
//! Fault decisions, heal points, frame contents, and replay suffixes
//! are all pure functions of the input stream and the [`FaultPlan`] —
//! worker scheduling only affects *when* frames are drained, never
//! which frame is newest at a join (joins synchronise the drain,
//! because a dead worker's frames are all already in its channel).
//! Faults fire before a dispatch drains, and `corrupt` targets the
//! first frame whose ordinal is at least the batches dispatched to the
//! shard before it fired — a frame not yet drained, whatever the
//! scheduling. Identical seeded runs therefore produce identical
//! merged states, restart counts, and event traces; the only racy
//! observables are gauge readings taken mid-run, same as queue depths.
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
//! [`WorkerCtx`]: crate::runtime::WorkerCtx

use crate::config::SupervisorConfig;
use crate::error::panic_message;
use crate::faults::{self, FaultKind};
use crate::read_plane::ReadPlane;
use crate::replay::ReplayLog;
use crate::runtime::{spawn_worker, AppliedHook, Command, WorkerCtx};
use crate::{BatchIngest, Engine, Routable, Shards};
use hindex_common::snapshot::fnv1a;
use hindex_common::{Estimate, Mergeable, Snapshot, SpaceUsage};
use hindex_obs::Stopwatch;
use std::sync::mpsc::{channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// One micro-checkpoint: the estimator's frame bytes after `applied`
/// batches.
struct Frame {
    applied: u64,
    bytes: Vec<u8>,
}

/// Whether an encoded frame's trailing FNV-1a checksum matches its
/// body — the cheap validity test the drain runs on every frame, and
/// what catches injected (or real torn-write) corruption.
fn frame_checksum_ok(bytes: &[u8]) -> bool {
    if bytes.len() < 8 {
        return false;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut checksum = [0u8; 8];
    checksum.copy_from_slice(tail);
    fnv1a(body) == u64::from_le_bytes(checksum)
}

/// A shard's recovery state under a nonzero restart budget.
pub(crate) struct Recovery<T> {
    /// The current lineage's frame channel.
    frames: Receiver<Frame>,
    log: ReplayLog<T>,
    /// Newest checksum-valid frame seen (corrupt frames are dropped).
    frame: Option<Frame>,
    /// Corrupt the first frame drained with `applied ≥` this ordinal.
    corrupt_after: Option<u64>,
}

impl<T: Clone> Recovery<T> {
    /// Words held: the replay log plus the retained frame.
    pub(crate) fn words(&self) -> usize {
        let frame_bytes = self.frame.as_ref().map_or(0, |f| f.bytes.len());
        self.log.words() + frame_bytes.div_ceil(std::mem::size_of::<u64>())
    }

    /// The newest usable restart point: the decoded newest frame,
    /// provided the log still covers every batch after it.
    fn restart_point<E: Snapshot>(&self) -> Result<(u64, E), &'static str> {
        let frame = self.frame.as_ref().ok_or("no usable micro-checkpoint")?;
        if frame.applied < self.log.start() {
            return Err("replay log overflowed past the newest micro-checkpoint");
        }
        let (state, _) =
            E::read_from(&frame.bytes).map_err(|_| "micro-checkpoint failed to decode")?;
        Ok((frame.applied, state))
    }
}

/// Everything the engine tracks per shard.
pub(crate) struct Shard<E, T> {
    pub(crate) sender: Option<SyncSender<Command<E, T>>>,
    pub(crate) handle: Option<JoinHandle<E>>,
    /// Frames and replay log; `None` under a zero restart budget.
    pub(crate) recovery: Option<Recovery<T>>,
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
        let recovery = (sup.max_restarts > 0).then(|| Recovery {
            frames: channel().1, // replaced by every spawn
            log: ReplayLog::new(sup.max_replay_words),
            frame: None,
            corrupt_after: None,
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
    E: BatchIngest<T> + Mergeable + Snapshot + Estimate + SpaceUsage + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    /// Spawns a worker for `shard` owning `state`, `base` applied
    /// batches into its stream. With recovery state the worker also
    /// encodes a frame at spawn and every `checkpoint_interval` applied
    /// batches; without, it gets no hook and pays nothing.
    pub(crate) fn spawn(&mut self, shard: usize, state: E, base: u64) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let interval = self.sup.checkpoint_interval;
        let s = &mut self.shards[shard];
        let on_applied = s.recovery.as_mut().map(|r| {
            let (frame_tx, frames) = channel();
            r.frames = frames;
            let hook: AppliedHook<E> = Box::new(move |estimator: &E, applied: u64| {
                // `applied == base` at spawn: every lineage emits its
                // base frame before its first recv.
                if (applied - base).is_multiple_of(interval) {
                    let _ = frame_tx.send(Frame { applied, bytes: estimator.to_bytes() });
                }
            });
            hook
        });
        let views = self.plane.as_ref().and_then(ReadPlane::view_sender);
        let ctx = WorkerCtx { shard, on_applied, views };
        let lineage = spawn_worker(self.config.queue_depth, state, base, ctx);
        s.sender = Some(lineage.sender);
        s.handle = Some(lineage.handle);
    }

    /// Counts `items` routed to `shard` that no worker will apply.
    fn lost(&self, shard: usize, items: u64) {
        if let Some(o) = &self.config.observer {
            o.on_batch_lost(self.router.tick(), shard, items);
        }
    }

    /// The one delivery path: fire due faults, log the batch (when
    /// healing), drain frames, then hand it over — directly to a live
    /// lineage, by heal-and-replay to a down one. A flush is recorded
    /// only once the batch reaches a worker; a batch that cannot is
    /// counted lost, so flushed-item telemetry never counts updates
    /// that no estimator ingested.
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
        self.drain_frames(shard);
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
                FaultKind::Corrupt => {
                    if let Some(r) = &mut s.recovery {
                        r.corrupt_after = Some(r.log.next());
                    }
                }
            }
        }
    }

    /// Non-blocking drain of `shard`'s frame channel: validate, apply
    /// armed corruption, keep the newest good frame, trim the log.
    fn drain_frames(&mut self, shard: usize) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let Some(r) = &mut self.shards[shard].recovery else { return };
        let obs = &self.config.observer;
        while let Ok(mut frame) = r.frames.try_recv() {
            if let Some(o) = obs {
                o.on_micro_checkpoint(shard, frame.bytes.len() as u64);
            }
            if r.corrupt_after.is_some_and(|min| frame.applied >= min) {
                faults::corrupt_frame(&mut frame.bytes);
                r.corrupt_after = None;
            }
            // A corrupt frame (injected or a real torn write) fails its
            // checksum and is dropped — recovery falls back to the
            // previous good frame, which the log still covers because
            // trimming only follows *accepted* frames.
            if frame_checksum_ok(&frame.bytes)
                && r.frame.as_ref().is_none_or(|f| frame.applied >= f.applied)
            {
                r.log.trim_to(frame.applied);
                r.frame = Some(frame);
            }
        }
        if let Some(o) = obs {
            o.on_replay_words(shard, r.log.words() as u64);
        }
    }

    /// The one worker-death path. Closes `shard`'s channel and joins
    /// its worker: the final state on a clean exit; on a panic, records
    /// the death (payload, trace) and returns `None`. Drains the frames
    /// the lineage emitted either way. Call it only once the worker has
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
        self.drain_frames(shard);
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

    /// Restart-from-checkpoint with replay. Returns `true` when the
    /// shard is live again; `false` means it went terminal.
    ///
    /// Loops because a replayed batch can re-kill the worker (a
    /// deterministic estimator bug): each attempt consumes one restart
    /// from the budget until the budget, the frame, or the log gives
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
            let point = match &s.recovery {
                Some(r) => r.restart_point::<E>(),
                None => Err("no usable micro-checkpoint"),
            };
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
            self.spawn(shard, state, base);
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

    /// Asks `shard`'s live worker for an in-place snapshot; the reply
    /// arrives on the returned channel.
    pub(crate) fn request(&self, shard: usize) -> Option<Receiver<E>> {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let (reply_tx, reply_rx) = channel();
        let tx = self.shards[shard].sender.as_ref()?;
        tx.send(Command::Snapshot(reply_tx)).ok()?;
        Some(reply_rx)
    }

    /// Snapshots every shard in place, in shard order; `None` =
    /// terminal. Requests are *pipelined*: all go out before any reply
    /// is awaited, so the shards clone concurrently and a query stalls
    /// ingestion for one clone's worth of time, not `shards` of them. A
    /// lineage that is down, or dies before replying, is healed and
    /// asked again; each heal spends budget, so every shard ends up
    /// answering or terminal.
    pub(crate) fn snapshot_states(&mut self) -> Vec<Option<E>> {
        let replies: Vec<_> = (0..self.shards.len())
            .map(|shard| {
                self.ensure_live(shard);
                self.request(shard)
            })
            .collect();
        let mut states = Vec::with_capacity(replies.len());
        for (shard, reply) in replies.into_iter().enumerate() {
            let mut state = reply.and_then(|rx| rx.recv().ok());
            while state.is_none() && self.shards[shard].terminal.is_none() {
                self.join_lineage(shard);
                state = if self.heal(shard) {
                    self.request(shard).and_then(|rx| rx.recv().ok())
                } else {
                    None
                };
            }
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
    use hindex_common::{CashRegisterEstimator, Estimate};

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
            "kill@100:0, fail@300:1=2, stall@200:2=5, corrupt@400:0, kill@900:0",
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
    fn corrupted_only_frame_goes_terminal_not_wrong() {
        // Corrupt the spawn frame before any other exists, then kill:
        // no usable checkpoint → terminal, with max_restarts > 0.
        let config = EngineConfig {
            shards: 1,
            batch_size: 8,
            queue_depth: 2,
            ..EngineConfig::default()
        };
        // Interval so large only the spawn frame is ever emitted.
        let sup = SupervisorConfig { checkpoint_interval: 1 << 40, ..SupervisorConfig::default() };
        let plan = FaultPlan::parse("corrupt@0:0, kill@50:0", 1, 10_000).unwrap();
        let mut engine =
            SupervisedEngine::with_faults(config, sup, plan, CashTable::new()).unwrap();
        for k in 0..200u64 {
            engine.ingest((k % 10, 1));
        }
        engine.flush();
        assert_eq!(engine.dead_shard_indices(), vec![0]);
        assert!(matches!(
            engine.finish_degraded().unwrap_err(),
            EngineError::AllShardsDead
        ));
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
