//! One end-to-end pass over the real `hindex engine` path, timed layer
//! by layer from outside: text parse (`hindex_cli::io::read_updates`),
//! engine construction, ingest in fixed-size `ingest_batch` chunks,
//! flush, and the final answer (a synchronous merge, or a forced
//! read-plane publish).
//!
//! With a read plane, a dashboard thread reads (`ReadHandle::query`
//! plus `Estimate::estimate`) on an open-loop schedule, each read timed
//! from when it was due so a stall counts against every read queued
//! behind it, and a watcher thread notes when each epoch first becomes
//! visible. Without a plane, the final answer is the pass's only read:
//! it is due when the last ingest call returns.

use crate::workload::{Item, Spec};
use hindex_cli::io::read_updates;
use hindex_common::{BankCounters, Engine, Estimate, Mergeable, Snapshot, SpaceUsage};
use hindex_engine::{
    BatchIngest, EngineConfig, EngineError, ReadHandle, ShardedEngine, SupervisedEngine,
    SupervisorConfig,
};
use hindex_obs::{EngineObserver, MetricsSnapshot};
use std::hint::black_box;
use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the watcher polls the published epoch, and the longest
/// nap the reader takes between due reads.
const POLL: Duration = Duration::from_micros(250);

/// How long a forced publish may take to become visible before the
/// pass counts it as failed.
const PUBLISH_TIMEOUT: Duration = Duration::from_secs(30);

/// The estimator bounds a pass needs (both engine policies' bounds).
pub trait Est:
    BatchIngest<Item> + Mergeable + Estimate + SpaceUsage + Snapshot + Clone + Send + Sync + 'static
{
}

impl<T> Est for T where
    T: BatchIngest<Item>
        + Mergeable
        + Estimate
        + SpaceUsage
        + Snapshot
        + Clone
        + Send
        + Sync
        + 'static
{
}

/// The engine verbs a pass drives: the [`Engine`] trait plus the
/// read-plane access that trait cannot name (as the CLI's `drive` does).
pub trait Policy<E>: Engine<Item, Output = E, Error = EngineError> {
    /// Handle onto the read plane, when one is configured.
    fn handle(&self) -> Option<ReadHandle<E>>;
    /// Forces a publish at the current offset.
    fn publish(&mut self) -> Option<u64>;
}

impl<E: Est> Policy<E> for ShardedEngine<E, Item> {
    fn handle(&self) -> Option<ReadHandle<E>> {
        self.read_handle()
    }
    fn publish(&mut self) -> Option<u64> {
        self.publish_now()
    }
}

impl<E: Est> Policy<E> for SupervisedEngine<E, Item> {
    fn handle(&self) -> Option<ReadHandle<E>> {
        self.read_handle()
    }
    fn publish(&mut self) -> Option<u64> {
        self.publish_now()
    }
}

/// One dashboard read.
#[derive(Clone, Copy, Debug)]
pub struct ReadSample {
    /// Due time to start: how late the read generator ran.
    pub late: Duration,
    /// The query call (`ReadHandle::query`, or `Engine::query`).
    pub query: Duration,
    /// The `Estimate::estimate` call on the state read.
    pub estimate: Duration,
    /// Due time to the value in hand.
    pub latency: Duration,
}

/// Everything one pass measured.
#[derive(Default)]
pub struct PassResult {
    /// Whether the pass ran with an observer attached.
    pub traced: bool,
    /// Prototype build.
    pub prototype: Duration,
    /// Engine construction (spawns the workers).
    pub spawn: Duration,
    /// Text parse, including the cash-register sign check.
    pub parse: Duration,
    /// Start of parse to the final answer in hand.
    pub total: Duration,
    /// Every `ingest_batch` call.
    pub ingest_calls: Vec<Duration>,
    /// The final `flush` call.
    pub flush: Duration,
    /// The forced final `publish_now` call (read plane only).
    pub publish_call: Option<Duration>,
    /// Forced publish call to the epoch visible to readers.
    pub publish_complete: Option<Duration>,
    /// Return of the last ingest call to the final value in hand.
    pub final_answer: Duration,
    /// Dashboard reads.
    pub reads: Vec<ReadSample>,
    /// Per epoch (without a plane, for the final answer): the item at
    /// its offset handed over to the epoch visible.
    pub fresh_lags: Vec<Duration>,
    /// Checks made (pass answer, reads, epochs).
    pub attempts: u64,
    /// Checks that failed, described.
    pub failures: Vec<String>,
    /// The final H-index estimate.
    pub estimate: u64,
    /// `frame_digest()` of the answering state.
    pub digest: u64,
    /// `space_words()` of the answering state.
    pub space_words: usize,
    /// Bank-kernel counters of the answering state.
    pub bank: Option<BankCounters>,
    /// Stream offsets at which the engine flushed partial batches
    /// (publishes and the end), for the serial replay.
    pub flush_points: Vec<u64>,
    /// Observer snapshot (traced passes only).
    pub obs: Option<MetricsSnapshot>,
}

/// Batches between micro-checkpoints at the CLI supervision defaults.
pub const CHECKPOINT_INTERVAL: u64 = 4;

/// The supervision knobs `hindex engine --supervise on` uses.
fn supervision() -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_interval: CHECKPOINT_INTERVAL,
        max_replay_words: 1 << 20,
        max_restarts: 8,
        backoff_ms: 0,
    }
}

fn supervised<E: Est>(config: EngineConfig, prototype: E) -> SupervisedEngine<E, Item> {
    SupervisedEngine::new(config, supervision(), prototype).expect("validated config")
}

/// The engine geometry of `spec`, with `observer` attached.
fn config(spec: &Spec, observer: Option<&Arc<EngineObserver>>) -> EngineConfig {
    let mut builder = EngineConfig::builder()
        .shards(spec.shards)
        .batch(spec.batch)
        .queue_depth(spec.queue_depth);
    if let Some(interval) = spec.publish_interval {
        builder = builder.publish_interval(interval);
    }
    if let Some(o) = observer {
        builder = builder.observer(Arc::clone(o));
    }
    builder.build().expect("workload geometry is valid")
}

/// The set-up layer: builds the prototype, then the engine (which
/// spawns the workers), timing each.
fn construct<E, N>(
    config: EngineConfig,
    prototype: impl Fn() -> E,
    spawn: impl FnOnce(EngineConfig, E) -> N,
) -> (N, Duration, Duration) {
    let t = Instant::now();
    let proto = black_box(prototype());
    let built = t.elapsed();
    let t = Instant::now();
    let engine = spawn(config, proto);
    (engine, built, t.elapsed())
}

/// Runs one pass of `spec` over `text` (two slices read one after the
/// other) on the policy the spec names. With a read plane, the feeder
/// first forces `early_publishes` publishes (fewer than
/// [`CHECKPOINT_INTERVAL`], at chunk boundaries before the first
/// periodic one); each adds one partial batch per shard, which moves
/// where the checkpoint cadence falls at the end of the stream.
pub fn run<E: Est>(
    spec: &Spec,
    text: (&[u8], &[u8]),
    prototype: impl Fn() -> E,
    traced: bool,
    early_publishes: usize,
) -> PassResult {
    let early: Vec<u64> = match spec.publish_interval {
        Some(_) => (0..early_publishes as u64)
            .map(|j| (2 * j + 1) * spec.chunk as u64)
            .collect(),
        None => Vec::new(),
    };
    if spec.supervised {
        drive(spec, text, prototype, traced, &early, supervised)
    } else {
        drive(spec, text, prototype, traced, &early, ShardedEngine::new)
    }
}

/// Set-up alone: `(prototype build, engine construction)`. The engine
/// is retired untimed.
pub fn setup<E: Est>(spec: &Spec, prototype: impl Fn() -> E) -> (Duration, Duration) {
    let config = config(spec, None);
    if spec.supervised {
        let (_engine, built, spawned) = construct(config, prototype, supervised);
        (built, spawned)
    } else {
        let (_engine, built, spawned) = construct(config, prototype, ShardedEngine::new);
        (built, spawned)
    }
}

/// When each chunk was handed to the engine: `(end offset, call start)`.
type Handovers = Vec<(u64, Instant)>;

/// The time the item at stream offset `offset - 1` was handed over.
fn handed_at(handovers: &Handovers, offset: u64) -> Option<Instant> {
    let i = handovers.partition_point(|&(end, _)| end < offset);
    handovers.get(i).map(|&(_, t)| t)
}

/// One pass on the engine `spawn` builds.
fn drive<E, N>(
    spec: &Spec,
    text: (&[u8], &[u8]),
    prototype: impl Fn() -> E,
    traced: bool,
    early: &[u64],
    spawn: impl FnOnce(EngineConfig, E) -> N,
) -> PassResult
where
    E: Est,
    N: Policy<E>,
{
    let observer = traced.then(|| Arc::new(EngineObserver::new(spec.shards)));
    let (mut engine, built, spawned) = construct(config(spec, observer.as_ref()), prototype, spawn);
    let mut out = PassResult {
        traced,
        prototype: built,
        spawn: spawned,
        ..PassResult::default()
    };

    let handle = engine.handle();
    let handed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut handovers: Handovers = Vec::with_capacity(spec.updates / spec.chunk + 1);
    // The forced final epoch; its visibility is timed by the feeder.
    let mut final_epoch = u64::MAX;

    std::thread::scope(|scope| {
        let plane_threads = handle.as_ref().map(|h| {
            let period = Duration::from_secs_f64(1.0 / spec.read_hz);
            let (handed, stop) = (&handed, &stop);
            let reader = scope.spawn(move || dashboard(h, period, handed, stop));
            let watcher = scope.spawn(move || watch(h, stop));
            (reader, watcher)
        });

        // Parse: the CLI's own reader, then the engine's sign check.
        let t0 = Instant::now();
        let raw = read_updates(&mut text.0.chain(text.1)).expect("generated text parses");
        let items: Vec<Item> = raw
            .iter()
            .map(|&(p, d)| {
                (
                    p,
                    u64::try_from(d).expect("cash-register deltas are non-negative"),
                )
            })
            .collect();
        out.parse = t0.elapsed();

        // Ingest: a closed loop, each call blocking on backpressure.
        let mut offset = 0u64;
        for chunk in items.chunks(spec.chunk) {
            if early.contains(&offset) && engine.publish().is_some() {
                out.flush_points.push(offset);
            }
            let end = offset + chunk.len() as u64;
            handed.store(end, Ordering::Release);
            let call = Instant::now();
            handovers.push((end, call));
            engine.ingest_batch(chunk);
            out.ingest_calls.push(call.elapsed());
            offset = end;
        }
        // From here the final answer is due.
        let last_call = Instant::now();
        let last_handover = handed_at(&handovers, offset).unwrap_or(last_call);

        let t = Instant::now();
        engine.flush();
        out.flush = t.elapsed();
        out.flush_points.push(offset);

        // The final answer: from a forced publish when there is a read
        // plane, from a synchronous merge otherwise. Without a plane it
        // is also the pass's only read.
        out.attempts += 1;
        let answer = match &handle {
            Some(h) => {
                let t = Instant::now();
                let epoch = engine.publish();
                out.publish_call = Some(t.elapsed());
                match epoch {
                    Some(epoch) => {
                        final_epoch = epoch;
                        while h.epoch() < epoch && t.elapsed() < PUBLISH_TIMEOUT {
                            std::thread::sleep(Duration::from_micros(20));
                        }
                        let visible = Instant::now();
                        out.publish_complete = Some(visible - t);
                        match h.query().filter(|v| v.epoch() >= epoch) {
                            Some(view) => {
                                let estimate = view.estimator().estimate();
                                out.final_answer = last_call.elapsed();
                                out.total = t0.elapsed();
                                out.fresh_lags.push(visible - last_handover);
                                if view.offset() != offset {
                                    out.failures.push(format!(
                                        "final view covers {} of {offset} items",
                                        view.offset()
                                    ));
                                }
                                Some((estimate, view.estimator().clone()))
                            }
                            None => {
                                out.failures
                                    .push(format!("epoch {epoch} never became visible"));
                                None
                            }
                        }
                    }
                    None => {
                        out.failures.push("forced publish refused".into());
                        None
                    }
                }
            }
            None => {
                let start = Instant::now();
                match engine.query() {
                    Ok(state) => {
                        let query = start.elapsed();
                        let t = Instant::now();
                        let estimate = state.estimate();
                        out.reads.push(ReadSample {
                            late: start - last_call,
                            query,
                            estimate: t.elapsed(),
                            latency: last_call.elapsed(),
                        });
                        out.final_answer = last_call.elapsed();
                        out.total = t0.elapsed();
                        out.fresh_lags.push(last_handover.elapsed());
                        Some((estimate, state))
                    }
                    Err(e) => {
                        out.failures.push(format!("final query failed: {e}"));
                        None
                    }
                }
            }
        };
        if let Some((estimate, state)) = answer {
            out.estimate = estimate;
            out.digest = state.frame_digest();
            out.space_words = state.space_words();
            out.bank = state.bank_counters();
        }
        stop.store(true, Ordering::Release);

        if let Some((reader, watcher)) = plane_threads {
            let reader = reader.join().expect("reader thread");
            let watcher = watcher.join().expect("watcher thread");
            out.attempts += reader.attempts + watcher.attempts;
            out.failures.extend(reader.failures);
            out.failures.extend(watcher.failures);
            out.reads = reader.reads;
            for &(_, epoch_offset, seen) in watcher.seen.iter().filter(|s| s.0 < final_epoch) {
                match handed_at(&handovers, epoch_offset) {
                    Some(h) if seen >= h => out.fresh_lags.push(seen - h),
                    _ => out.failures.push(format!(
                        "epoch at offset {epoch_offset} visible before handover"
                    )),
                }
            }
        }
    });

    if let Some(interval) = spec.publish_interval {
        // Periodic publishes flush every `interval` items after the
        // last publish; the early forced ones all come first.
        let n = handovers.last().map_or(0, |&(end, _)| end);
        let base = out
            .flush_points
            .iter()
            .copied()
            .filter(|p| early.contains(p))
            .max()
            .unwrap_or(0);
        out.flush_points
            .extend((1..).map(|k| base + k * interval).take_while(|&p| p <= n));
    }
    out.obs = observer.map(|o| o.snapshot());
    match engine.finish_degraded() {
        Ok(d) if d.dead_shards.is_empty() => {}
        Ok(d) => out
            .failures
            .push(format!("dead shards {:?}", d.dead_shards)),
        Err(e) => out.failures.push(format!("finish failed: {e}")),
    }
    out.attempts += 1;
    out
}

/// What a dashboard thread brings back.
#[derive(Default)]
struct ReaderOut {
    reads: Vec<ReadSample>,
    attempts: u64,
    failures: Vec<String>,
}

/// The read-plane dashboard: from the first visible epoch on, reads
/// (`query` plus `estimate`) at a fixed rate until stopped; each read
/// checks that epochs never go back and that the view covers no more
/// items than were handed over.
fn dashboard<E: Estimate>(
    handle: &ReadHandle<E>,
    period: Duration,
    handed: &AtomicU64,
    stop: &AtomicBool,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut next_due: Option<Instant> = None;
    let mut last_epoch = 0u64;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let now = Instant::now();
        if next_due.is_none() && handle.epoch() > 0 {
            next_due = Some(now);
        }
        let due = match next_due {
            // A run too short for the schedule still reads once.
            Some(d) if stopping && out.reads.is_empty() => d.min(now),
            _ if stopping => break,
            Some(d) if now >= d => d,
            Some(d) => {
                std::thread::sleep((d - now).min(POLL));
                continue;
            }
            None => {
                std::thread::sleep(POLL);
                continue;
            }
        };
        let start = Instant::now();
        let Some(view) = handle.query() else {
            out.attempts += 1;
            out.failures.push("published epoch vanished".into());
            break;
        };
        let query = start.elapsed();
        let t = Instant::now();
        black_box(view.estimator().estimate());
        let estimate = t.elapsed();
        let done = Instant::now();
        out.attempts += 1;
        let limit = handed.load(Ordering::Acquire);
        if view.epoch() < last_epoch || view.offset() > limit {
            out.failures.push(format!(
                "read saw epoch {} at offset {} (previous epoch {last_epoch}, handed over {limit})",
                view.epoch(),
                view.offset()
            ));
        }
        last_epoch = view.epoch();
        out.reads.push(ReadSample {
            late: start - due,
            query,
            estimate,
            latency: done - due,
        });
        next_due = Some(due + period);
    }
    out
}

/// What the watcher brings back: `(epoch, offset, first seen)` per
/// epoch.
#[derive(Default)]
struct WatchOut {
    seen: Vec<(u64, u64, Instant)>,
    attempts: u64,
    failures: Vec<String>,
}

/// Polls the published epoch and notes when each new epoch first
/// becomes visible, checking that epochs and offsets only grow.
fn watch<E>(handle: &ReadHandle<E>, stop: &AtomicBool) -> WatchOut {
    let mut out = WatchOut::default();
    let mut last = (0u64, 0u64);
    while !stop.load(Ordering::Acquire) {
        if handle.epoch() > last.0 {
            let now = Instant::now();
            if let Some(view) = handle.query() {
                out.attempts += 1;
                if view.epoch() <= last.0 || view.offset() < last.1 {
                    out.failures.push(format!(
                        "epoch {} at offset {} after epoch {} at offset {}",
                        view.epoch(),
                        view.offset(),
                        last.0,
                        last.1
                    ));
                }
                last = (view.epoch(), view.offset());
                out.seen.push((view.epoch(), view.offset(), now));
            }
        }
        std::thread::sleep(POLL);
    }
    out
}
