//! The engine-facing hook object and its exportable snapshot.
//!
//! [`EngineObserver`] is what the sharded engine drives: one method
//! per instrumentation point, all cheap, all callable from the
//! engine's router thread. [`MetricsSnapshot`] is the frozen view a
//! query or the CLI exports, with a Prometheus-style text exposition.
//!
//! Every hook takes the engine's logical `tick` so traces and
//! counters are functions of the command sequence alone; wall-clock
//! durations enter only through the `*_ns` histogram arguments, which
//! callers obtain from [`crate::clock::Stopwatch`].

use crate::metrics::{Counter, Gauge, LatencyHistogram, LatencySummary};
use crate::rate::{BatchStats, RateMeter};
use crate::trace::{Event, EventKind, Tracer};
use crate::lock_or_recover;
use hindex_common::BankCounters;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Observation window for the full-batch rate meter, in flushes.
const RATE_WINDOW: u64 = 1024;
/// DGIM precision (buckets per size) for the rate meter.
const RATE_K: usize = 4;

/// Per-engine instrumentation sink.
///
/// Create one sized to the engine's shard count, share it (it is
/// `Sync`; the engine takes it behind an `Arc`), and read it at any
/// time with [`EngineObserver::snapshot`].
#[derive(Debug)]
pub struct EngineObserver {
    shards: usize,
    items: Counter,
    push_batches: Counter,
    flushes: Counter,
    merges: Counter,
    degraded_queries: Counter,
    checkpoints: Counter,
    restores: Counter,
    shard_panics: Counter,
    restarts: Counter,
    replayed_batches: Counter,
    micro_checkpoints: Counter,
    replay_overflows: Counter,
    batches_lost: Counter,
    items_lost: Counter,
    faults_injected: Counter,
    views_published: Counter,
    reader_queries: Counter,
    reader_misses: Counter,
    published_epoch: Gauge,
    per_shard_items: Vec<Counter>,
    queue_depth: Vec<Gauge>,
    replay_words: Vec<Gauge>,
    batch_stats: Mutex<BatchStats>,
    full_rate: Mutex<RateMeter>,
    checkpoint_ns: LatencyHistogram,
    restore_ns: LatencyHistogram,
    snapshot_ns: LatencyHistogram,
    recovery_ns: LatencyHistogram,
    publish_ns: LatencyHistogram,
    /// Latest bank-kernel totals reported by the merged estimator at a
    /// query boundary (absolute values, not increments).
    bank: Mutex<BankCounters>,
    tracer: Tracer,
}

impl EngineObserver {
    /// An observer for an engine with `shards` shard workers
    /// (`0` is clamped to 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards,
            items: Counter::new(),
            push_batches: Counter::new(),
            flushes: Counter::new(),
            merges: Counter::new(),
            degraded_queries: Counter::new(),
            checkpoints: Counter::new(),
            restores: Counter::new(),
            shard_panics: Counter::new(),
            restarts: Counter::new(),
            replayed_batches: Counter::new(),
            micro_checkpoints: Counter::new(),
            replay_overflows: Counter::new(),
            batches_lost: Counter::new(),
            items_lost: Counter::new(),
            faults_injected: Counter::new(),
            views_published: Counter::new(),
            reader_queries: Counter::new(),
            reader_misses: Counter::new(),
            published_epoch: Gauge::new(),
            per_shard_items: (0..shards).map(|_| Counter::new()).collect(),
            queue_depth: (0..shards).map(|_| Gauge::new()).collect(),
            replay_words: (0..shards).map(|_| Gauge::new()).collect(),
            batch_stats: Mutex::new(BatchStats::new()),
            full_rate: Mutex::new(RateMeter::new(RATE_WINDOW, RATE_K)),
            checkpoint_ns: LatencyHistogram::new(),
            restore_ns: LatencyHistogram::new(),
            snapshot_ns: LatencyHistogram::new(),
            recovery_ns: LatencyHistogram::new(),
            publish_ns: LatencyHistogram::new(),
            bank: Mutex::new(BankCounters::default()),
            tracer: Tracer::default(),
        }
    }

    /// The shard count this observer was sized for.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// A caller handed the engine `n` items in one `ingest_batch`
    /// call. Items are *counted* at flush time (when they reach a
    /// worker), so this hook only traces the caller-visible span.
    pub fn on_push_batch(&self, tick: u64, n: u64) {
        self.push_batches.inc();
        self.tracer.record(EventKind::PushBatch, tick, None, n);
    }

    /// A per-shard buffer of `len` items was flushed and sent to
    /// `shard`; `full` says whether it reached the configured batch
    /// size.
    pub fn on_flush(&self, tick: u64, shard: usize, len: u64, full: bool) {
        self.flushes.inc();
        self.items.add(len);
        if let Some(c) = self.per_shard_items.get(shard) {
            c.add(len);
        }
        lock_or_recover(&self.batch_stats).record(len);
        lock_or_recover(&self.full_rate).record(full);
        let shard_id = u32::try_from(shard).ok();
        self.tracer.record(EventKind::Flush, tick, shard_id, len);
        self.tracer.record(EventKind::ShardSend, tick, shard_id, len);
    }

    /// Router-side backlog for `shard` observed at a flush boundary
    /// (items buffered, waiting for a batch to fill). Gauge-only: no
    /// event, so it is cheap enough for the query path.
    pub fn on_queue_depth(&self, shard: usize, depth: u64) {
        if let Some(g) = self.queue_depth.get(shard) {
            g.set(depth);
        }
    }

    /// `shards_merged` shard states were merged to answer a query.
    pub fn on_merge(&self, tick: u64, shards_merged: u64) {
        self.merges.inc();
        self.tracer.record(EventKind::Merge, tick, None, shards_merged);
    }

    /// A query fell back to degraded mode with `dead` dead shards.
    pub fn on_query_degraded(&self, tick: u64, dead: u64) {
        self.degraded_queries.inc();
        self.tracer.record(EventKind::QueryDegraded, tick, None, dead);
    }

    /// An engine checkpoint capturing `shard_states` shards was
    /// assembled in `nanos`.
    pub fn on_checkpoint(&self, tick: u64, shard_states: u64, nanos: u64) {
        self.checkpoints.inc();
        self.checkpoint_ns.record(nanos);
        self.tracer.record(EventKind::Checkpoint, tick, None, shard_states);
    }

    /// An engine was respawned from a checkpoint of `shard_states`
    /// shards in `nanos`.
    pub fn on_restore(&self, tick: u64, shard_states: u64, nanos: u64) {
        self.restores.inc();
        self.restore_ns.record(nanos);
        self.tracer.record(EventKind::Restore, tick, None, shard_states);
    }

    /// A standalone estimator snapshot was encoded (`bytes` bytes,
    /// `nanos` ns).
    pub fn on_snapshot_encode(&self, tick: u64, bytes: u64, nanos: u64) {
        self.snapshot_ns.record(nanos);
        self.tracer.record(EventKind::SnapshotEncode, tick, None, bytes);
    }

    /// A standalone estimator snapshot was decoded (`bytes` bytes,
    /// `nanos` ns).
    pub fn on_snapshot_decode(&self, tick: u64, bytes: u64, nanos: u64) {
        self.snapshot_ns.record(nanos);
        self.tracer.record(EventKind::SnapshotDecode, tick, None, bytes);
    }

    /// The engine surfaced the merged estimator's bank-kernel totals
    /// at a query boundary. `counters` carries absolute values since
    /// estimator construction (summed across shards by the merge), so
    /// the observer stores the latest report rather than accumulating.
    pub fn on_bank_batch(&self, tick: u64, counters: &BankCounters) {
        *lock_or_recover(&self.bank) = *counters;
        self.tracer
            .record(EventKind::BankBatch, tick, None, counters.tile_items);
    }

    /// A shard worker's death was detected and its panic payload (if
    /// any) harvested; `deaths` = times this shard has now died. Fired
    /// from the router/supervisor thread at detection, so a seeded
    /// fault plan produces the same event sequence on every run.
    pub fn on_shard_panicked(&self, tick: u64, shard: usize, deaths: u64) {
        self.shard_panics.inc();
        self.tracer
            .record(EventKind::ShardPanicked, tick, u32::try_from(shard).ok(), deaths);
    }

    /// The supervisor respawned `shard` from its recovery base and
    /// replayed `replayed` batches from the log, taking `nanos`.
    pub fn on_shard_restart(&self, tick: u64, shard: usize, replayed: u64, nanos: u64) {
        self.restarts.inc();
        self.replayed_batches.add(replayed);
        self.recovery_ns.record(nanos);
        self.tracer
            .record(EventKind::ShardRestart, tick, u32::try_from(shard).ok(), replayed);
    }

    /// The supervisor retained a recovery cut of `shard` as its newest
    /// base. Counter-only (no trace event): cuts are cloned on worker
    /// threads and drained opportunistically, so their *arrival
    /// instant* is scheduler-dependent even though the set drained by
    /// any join barrier is deterministic.
    pub fn on_micro_checkpoint(&self, shard: usize) {
        let _ = shard;
        self.micro_checkpoints.inc();
    }

    /// Current replay-log size for `shard`, in words. Gauge-only, like
    /// queue depth: the value observed mid-run depends on drain timing.
    pub fn on_replay_words(&self, shard: usize, words: u64) {
        if let Some(g) = self.replay_words.get(shard) {
            g.set(words);
        }
    }

    /// A batch could not be delivered and recovery failed or was not
    /// attempted: `items` updates are lost for good. This is the
    /// honest-degradation signal — flushed-item counters never include
    /// these items.
    pub fn on_batch_lost(&self, tick: u64, shard: usize, items: u64) {
        self.batches_lost.inc();
        self.items_lost.add(items);
        self.tracer
            .record(EventKind::BatchLost, tick, u32::try_from(shard).ok(), items);
    }

    /// A shard's replay log outgrew its budget and evicted `evicted`
    /// of its oldest batches; the shard is unrecoverable until a
    /// fresher recovery base covers the gap.
    pub fn on_replay_overflow(&self, tick: u64, shard: usize, evicted: u64) {
        self.replay_overflows.inc();
        self.tracer
            .record(EventKind::ReplayOverflow, tick, u32::try_from(shard).ok(), evicted);
    }

    /// The fault harness injected a planned fault (`kind_code` is the
    /// plan's stable per-kind code; `shard` is the target, if any).
    pub fn on_fault_injected(&self, tick: u64, shard: Option<u32>, kind_code: u64) {
        self.faults_injected.inc();
        self.tracer.record(EventKind::FaultInjected, tick, shard, kind_code);
    }

    /// The router issued read-plane publish markers for `epoch` to
    /// every live shard at logical `tick`. Fired from the router
    /// thread, so the publish sequence is deterministic for a seeded
    /// run; the epoch's *completion* is reported separately by
    /// [`EngineObserver::on_view_ready`].
    pub fn on_view_published(&self, tick: u64, epoch: u64) {
        self.views_published.inc();
        self.tracer.record(EventKind::ViewPublished, tick, None, epoch);
    }

    /// The read-plane aggregator finished merging and swapping in the
    /// view for `epoch`, taking `nanos` from last shard reply to
    /// publication. Gauge + histogram only (no trace event): completion
    /// instants are scheduler-dependent, like frame arrivals.
    pub fn on_view_ready(&self, epoch: u64, nanos: u64) {
        self.published_epoch.set(epoch);
        self.publish_ns.record(nanos);
    }

    /// A reader queried a [`ReadHandle`]; `hit` says whether a
    /// published view existed. Fired from reader threads — counters
    /// only, so concurrent readers never contend on a lock.
    ///
    /// [`ReadHandle`]: ../hindex_engine/struct.ReadHandle.html
    pub fn on_read_query(&self, hit: bool) {
        self.reader_queries.inc();
        if !hit {
            self.reader_misses.inc();
        }
    }

    /// Freezes the current state into an exportable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let per_shard_items: Vec<u64> = self.per_shard_items.iter().map(Counter::get).collect();
        let queue_depths: Vec<u64> = self.queue_depth.iter().map(Gauge::get).collect();
        let queue_depth_peaks: Vec<u64> = self.queue_depth.iter().map(Gauge::peak).collect();
        let replay_words: Vec<u64> = self.replay_words.iter().map(Gauge::get).collect();
        let replay_words_peaks: Vec<u64> = self.replay_words.iter().map(Gauge::peak).collect();
        let routing_skew = {
            let max = per_shard_items.iter().copied().max().unwrap_or(0);
            let total: u64 = per_shard_items.iter().sum();
            if total == 0 {
                1.0
            } else {
                let mean = total as f64 / per_shard_items.len().max(1) as f64;
                max as f64 / mean
            }
        };
        let (batch_h_index, batch_max, batch_mean) = {
            let b = lock_or_recover(&self.batch_stats);
            (b.h_index(), b.max(), b.mean())
        };
        let bank = *lock_or_recover(&self.bank);
        MetricsSnapshot {
            shards: self.shards,
            items: self.items.get(),
            push_batches: self.push_batches.get(),
            flushes: self.flushes.get(),
            merges: self.merges.get(),
            degraded_queries: self.degraded_queries.get(),
            checkpoints: self.checkpoints.get(),
            restores: self.restores.get(),
            shard_panics: self.shard_panics.get(),
            restarts: self.restarts.get(),
            replayed_batches: self.replayed_batches.get(),
            micro_checkpoints: self.micro_checkpoints.get(),
            replay_overflows: self.replay_overflows.get(),
            batches_lost: self.batches_lost.get(),
            items_lost: self.items_lost.get(),
            faults_injected: self.faults_injected.get(),
            views_published: self.views_published.get(),
            reader_queries: self.reader_queries.get(),
            reader_misses: self.reader_misses.get(),
            published_epoch: self.published_epoch.get(),
            per_shard_items,
            queue_depths,
            queue_depth_peaks,
            replay_words,
            replay_words_peaks,
            routing_skew,
            batch_h_index,
            batch_max,
            batch_mean,
            full_batch_rate: lock_or_recover(&self.full_rate).rate(),
            checkpoint_ns: self.checkpoint_ns.summary(),
            restore_ns: self.restore_ns.summary(),
            snapshot_ns: self.snapshot_ns.summary(),
            recovery_ns: self.recovery_ns.summary(),
            publish_ns: self.publish_ns.summary(),
            bank,
            events_recorded: self.tracer.recorded(),
            events: self.tracer.events(),
        }
    }
}

/// A frozen, exportable view of an [`EngineObserver`].
///
/// Everything except the `*_ns` summaries is deterministic for a
/// fixed seeded run (see the crate docs' determinism contract).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Shard workers the observed engine runs.
    pub shards: usize,
    /// Total items ingested.
    pub items: u64,
    /// Caller-visible ingest calls.
    pub push_batches: u64,
    /// Per-shard buffer flushes.
    pub flushes: u64,
    /// Query-time merges.
    pub merges: u64,
    /// Queries answered in degraded mode.
    pub degraded_queries: u64,
    /// Engine checkpoints encoded.
    pub checkpoints: u64,
    /// Engine restores from checkpoints.
    pub restores: u64,
    /// Worker deaths detected (panic payload harvested when possible).
    pub shard_panics: u64,
    /// Shard respawns from a recovery base by the supervisor.
    pub restarts: u64,
    /// Batches re-sent from replay logs during restarts.
    pub replayed_batches: u64,
    /// Per-shard recovery cuts retained by the supervisor.
    pub micro_checkpoints: u64,
    /// Replay-log budget overflows (oldest batches evicted).
    pub replay_overflows: u64,
    /// Batches whose updates were lost for good.
    pub batches_lost: u64,
    /// Items inside those lost batches.
    pub items_lost: u64,
    /// Faults injected by a seeded fault plan.
    pub faults_injected: u64,
    /// Read-plane publish markers issued by the router (epochs begun).
    pub views_published: u64,
    /// Queries answered through a cloneable read handle.
    pub reader_queries: u64,
    /// Read-handle queries that found no published view yet.
    pub reader_misses: u64,
    /// Newest epoch whose merged view is visible to readers.
    pub published_epoch: u64,
    /// Items routed to each shard.
    pub per_shard_items: Vec<u64>,
    /// Current buffered items per shard.
    pub queue_depths: Vec<u64>,
    /// High-water buffered items per shard.
    pub queue_depth_peaks: Vec<u64>,
    /// Current replay-log size per shard, in words.
    pub replay_words: Vec<u64>,
    /// High-water replay-log size per shard, in words.
    pub replay_words_peaks: Vec<u64>,
    /// Max per-shard items over the mean (1.0 = perfectly balanced).
    pub routing_skew: f64,
    /// H-index of the batch-size stream (Algorithm 1 on telemetry).
    pub batch_h_index: u64,
    /// Largest flushed batch.
    pub batch_max: u64,
    /// Mean flushed batch length.
    pub batch_mean: u64,
    /// Fraction of recent flushes that were full batches (DGIM).
    pub full_batch_rate: f64,
    /// Checkpoint encode latency.
    pub checkpoint_ns: LatencySummary,
    /// Restore latency.
    pub restore_ns: LatencySummary,
    /// Standalone snapshot encode/decode latency.
    pub snapshot_ns: LatencySummary,
    /// Shard recovery (respawn + replay) latency.
    pub recovery_ns: LatencySummary,
    /// Read-plane view merge-and-swap latency.
    pub publish_ns: LatencySummary,
    /// Bank-kernel totals from the last query merge (zeroes when the
    /// estimator has no bank path or it never ran). Derived rates:
    /// [`MetricsSnapshot::bank_tile_fill`],
    /// `MetricsSnapshot::bank_survivor_touches_per_item`,
    /// [`MetricsSnapshot::bank_hash_reuse`].
    pub bank: BankCounters,
    /// Total events ever recorded (ring may have evicted some).
    pub events_recorded: u64,
    /// The retained event trace, oldest first.
    pub events: Vec<Event>,
}

/// Writes one metric: `# HELP` / `# TYPE` preamble plus the sample.
fn metric(out: &mut String, name: &str, kind: &str, help: &str, value: impl std::fmt::Display) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

impl MetricsSnapshot {
    /// Fraction of bank tile capacity actually filled (`0.0` when the
    /// bank never ran).
    #[must_use]
    pub fn bank_tile_fill(&self) -> f64 {
        if self.bank.tile_capacity == 0 {
            return 0.0;
        }
        self.bank.tile_items as f64 / self.bank.tile_capacity as f64
    }

    /// Mean (item, level) touches dispatched per sampler-item — the
    /// survivor rate of the level dispatch, ≈ 2 for a geometric level
    /// hash. Reported per *bank* item here, summed over samplers, so
    /// divide by the sampler count for the per-sampler figure.
    #[must_use]
    pub(crate) fn bank_survivor_touches_per_item(&self) -> f64 {
        if self.bank.tile_items == 0 {
            return 0.0;
        }
        self.bank.level_touches as f64 / self.bank.tile_items as f64
    }

    /// Fraction of fingerprint-term evaluations avoided by the shared
    /// bank ladder.
    #[must_use]
    pub fn bank_hash_reuse(&self) -> f64 {
        let total = self.bank.pow_evals + self.bank.pow_reused;
        if total == 0 {
            return 0.0;
        }
        self.bank.pow_reused as f64 / total as f64
    }

    /// Prometheus-style text exposition of every scalar metric, plus
    /// per-shard series labelled `{shard="i"}`.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        metric(&mut s, "hindex_engine_shards", "gauge",
            "Shard workers in the observed engine.", self.shards);
        metric(&mut s, "hindex_engine_items_total", "counter",
            "Items ingested.", self.items);
        metric(&mut s, "hindex_engine_push_batches_total", "counter",
            "Caller-visible ingest calls.", self.push_batches);
        metric(&mut s, "hindex_engine_flushes_total", "counter",
            "Per-shard buffer flushes.", self.flushes);
        metric(&mut s, "hindex_engine_merges_total", "counter",
            "Query-time merges of shard states.", self.merges);
        metric(&mut s, "hindex_engine_degraded_queries_total", "counter",
            "Queries answered with dead shards missing.", self.degraded_queries);
        metric(&mut s, "hindex_engine_checkpoints_total", "counter",
            "Engine checkpoints encoded.", self.checkpoints);
        metric(&mut s, "hindex_engine_restores_total", "counter",
            "Engine restores from checkpoints.", self.restores);
        metric(&mut s, "hindex_engine_shard_panics_total", "counter",
            "Worker deaths detected.", self.shard_panics);
        metric(&mut s, "hindex_engine_restarts_total", "counter",
            "Shard respawns from a recovery base.", self.restarts);
        metric(&mut s, "hindex_engine_replayed_batches_total", "counter",
            "Batches re-sent from replay logs during restarts.", self.replayed_batches);
        metric(&mut s, "hindex_engine_micro_checkpoints_total", "counter",
            "Per-shard recovery cuts retained.", self.micro_checkpoints);
        metric(&mut s, "hindex_engine_replay_overflows_total", "counter",
            "Replay-log budget overflows (oldest batches evicted).", self.replay_overflows);
        metric(&mut s, "hindex_engine_batches_lost_total", "counter",
            "Batches whose updates were lost for good.", self.batches_lost);
        metric(&mut s, "hindex_engine_items_lost_total", "counter",
            "Items inside lost batches.", self.items_lost);
        metric(&mut s, "hindex_engine_faults_injected_total", "counter",
            "Faults injected by a seeded fault plan.", self.faults_injected);
        metric(&mut s, "hindex_engine_views_published_total", "counter",
            "Read-plane publish markers issued (epochs begun).", self.views_published);
        metric(&mut s, "hindex_engine_published_epoch", "gauge",
            "Newest epoch visible to read-handle queries.", self.published_epoch);
        metric(&mut s, "hindex_engine_reader_queries_total", "counter",
            "Queries answered through cloneable read handles.", self.reader_queries);
        metric(&mut s, "hindex_engine_reader_misses_total", "counter",
            "Read-handle queries that found no published view.", self.reader_misses);

        let _ = writeln!(s, "# HELP hindex_engine_shard_items_total Items routed per shard.");
        let _ = writeln!(s, "# TYPE hindex_engine_shard_items_total counter");
        for (i, v) in self.per_shard_items.iter().enumerate() {
            let _ = writeln!(s, "hindex_engine_shard_items_total{{shard=\"{i}\"}} {v}");
        }
        let _ = writeln!(s, "# HELP hindex_engine_queue_depth Buffered items per shard.");
        let _ = writeln!(s, "# TYPE hindex_engine_queue_depth gauge");
        for (i, v) in self.queue_depths.iter().enumerate() {
            let _ = writeln!(s, "hindex_engine_queue_depth{{shard=\"{i}\"}} {v}");
        }
        for (i, v) in self.queue_depth_peaks.iter().enumerate() {
            let _ = writeln!(s, "hindex_engine_queue_depth_peak{{shard=\"{i}\"}} {v}");
        }
        let _ = writeln!(s, "# HELP hindex_engine_replay_words Replay-log size per shard, words.");
        let _ = writeln!(s, "# TYPE hindex_engine_replay_words gauge");
        for (i, v) in self.replay_words.iter().enumerate() {
            let _ = writeln!(s, "hindex_engine_replay_words{{shard=\"{i}\"}} {v}");
        }
        for (i, v) in self.replay_words_peaks.iter().enumerate() {
            let _ = writeln!(s, "hindex_engine_replay_words_peak{{shard=\"{i}\"}} {v}");
        }

        metric(&mut s, "hindex_engine_routing_skew", "gauge",
            "Max per-shard items over the mean (1 = balanced).",
            format_args!("{:.4}", self.routing_skew));
        metric(&mut s, "hindex_engine_batch_size_hindex", "gauge",
            "H-index of the flushed-batch-size stream (Algorithm 1).", self.batch_h_index);
        metric(&mut s, "hindex_engine_batch_size_max", "gauge",
            "Largest flushed batch.", self.batch_max);
        metric(&mut s, "hindex_engine_batch_size_mean", "gauge",
            "Mean flushed batch length.", self.batch_mean);
        metric(&mut s, "hindex_engine_full_batch_rate", "gauge",
            "Fraction of recent flushes that were full batches (DGIM window).",
            format_args!("{:.4}", self.full_batch_rate));

        for (name, sum) in [
            ("hindex_engine_checkpoint", &self.checkpoint_ns),
            ("hindex_engine_restore", &self.restore_ns),
            ("hindex_engine_snapshot", &self.snapshot_ns),
            ("hindex_engine_recovery", &self.recovery_ns),
            ("hindex_engine_publish", &self.publish_ns),
        ] {
            metric(&mut s, &format!("{name}_count"), "counter",
                "Operations timed.", sum.count);
            metric(&mut s, &format!("{name}_mean_ns"), "gauge",
                "Mean duration, nanoseconds.", sum.mean_ns);
            metric(&mut s, &format!("{name}_p99_ns"), "gauge",
                "p99 duration upper bound, nanoseconds.", sum.p99_ns);
        }

        metric(&mut s, "hindex_bank_tiles_total", "counter",
            "Tiles dispatched through the bank ingest kernel.", self.bank.tiles);
        metric(&mut s, "hindex_bank_tile_items_total", "counter",
            "Coalesced items carried by bank tiles.", self.bank.tile_items);
        metric(&mut s, "hindex_bank_raw_updates_total", "counter",
            "Raw updates offered to the bank before coalescing.", self.bank.raw_updates);
        metric(&mut s, "hindex_bank_level_touches_total", "counter",
            "(item, level) touches dispatched across the sampler bank.",
            self.bank.level_touches);
        metric(&mut s, "hindex_bank_tile_fill", "gauge",
            "Fraction of bank tile capacity filled.",
            format_args!("{:.4}", self.bank_tile_fill()));
        metric(&mut s, "hindex_bank_survivor_touches_per_item", "gauge",
            "Level touches dispatched per bank item (survivor rate).",
            format_args!("{:.4}", self.bank_survivor_touches_per_item()));
        metric(&mut s, "hindex_bank_hash_reuse", "gauge",
            "Fraction of fingerprint evaluations saved by the shared bank ladder.",
            format_args!("{:.4}", self.bank_hash_reuse()));

        metric(&mut s, "hindex_trace_events_total", "counter",
            "Events recorded by the tracer.", self.events_recorded);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercised() -> EngineObserver {
        let o = EngineObserver::new(2);
        o.on_push_batch(1, 100);
        o.on_flush(2, 0, 64, true);
        o.on_flush(3, 1, 36, false);
        o.on_queue_depth(1, 36);
        o.on_merge(4, 2);
        o.on_query_degraded(5, 1);
        o.on_checkpoint(6, 512, 1_000);
        o.on_restore(7, 512, 2_000);
        o.on_snapshot_encode(8, 128, 500);
        o.on_snapshot_decode(9, 128, 700);
        o.on_shard_panicked(10, 1, 1);
        o.on_shard_restart(10, 1, 3, 4_000);
        o.on_micro_checkpoint(1);
        o.on_replay_words(1, 48);
        o.on_batch_lost(11, 0, 7);
        o.on_replay_overflow(12, 0, 2);
        o.on_fault_injected(12, Some(0), 1);
        o.on_view_published(13, 2);
        o.on_view_ready(2, 9_000);
        o.on_read_query(true);
        o.on_read_query(false);
        o.on_bank_batch(
            13,
            &BankCounters {
                tiles: 4,
                tile_items: 900,
                tile_capacity: 1024,
                raw_updates: 10_000,
                level_touches: 1800 * 77,
                pow_evals: 900,
                pow_reused: 900 * 76,
            },
        );
        o
    }

    #[test]
    fn hooks_update_every_metric() {
        let snap = exercised().snapshot();
        assert_eq!(snap.items, 100);
        assert_eq!(snap.push_batches, 1);
        assert_eq!(snap.flushes, 2);
        assert_eq!(snap.merges, 1);
        assert_eq!(snap.degraded_queries, 1);
        assert_eq!(snap.checkpoints, 1);
        assert_eq!(snap.restores, 1);
        assert_eq!(snap.shard_panics, 1);
        assert_eq!(snap.restarts, 1);
        assert_eq!(snap.replayed_batches, 3);
        assert_eq!(snap.micro_checkpoints, 1);
        assert_eq!(snap.replay_overflows, 1);
        assert_eq!(snap.batches_lost, 1);
        assert_eq!(snap.items_lost, 7);
        assert_eq!(snap.faults_injected, 1);
        assert_eq!(snap.views_published, 1);
        assert_eq!(snap.published_epoch, 2);
        assert_eq!(snap.reader_queries, 2);
        assert_eq!(snap.reader_misses, 1);
        assert_eq!(snap.publish_ns.count, 1);
        assert_eq!(snap.replay_words, vec![0, 48]);
        assert_eq!(snap.replay_words_peaks, vec![0, 48]);
        assert_eq!(snap.recovery_ns.count, 1);
        assert_eq!(snap.per_shard_items, vec![64, 36]);
        assert_eq!(snap.queue_depths, vec![0, 36]);
        assert_eq!(snap.queue_depth_peaks, vec![0, 36]);
        assert_eq!(snap.batch_max, 64);
        assert_eq!(snap.batch_mean, 50);
        assert!(snap.full_batch_rate > 0.0);
        assert!(snap.routing_skew > 1.0);
        assert_eq!(snap.checkpoint_ns.count, 1);
        assert_eq!(snap.restore_ns.count, 1);
        assert_eq!(snap.snapshot_ns.count, 2);
        assert_eq!(snap.bank.tiles, 4);
        assert_eq!(snap.bank.raw_updates, 10_000);
        assert!((snap.bank_tile_fill() - 900.0 / 1024.0).abs() < 1e-9);
        assert!((snap.bank_survivor_touches_per_item() - 154.0).abs() < 1e-9);
        assert!(snap.bank_hash_reuse() > 0.98);
        assert_eq!(snap.events_recorded, 18); // flush records 2 events
    }

    #[test]
    fn event_trace_is_ordered_and_logical() {
        let snap = exercised().snapshot();
        let kinds: Vec<EventKind> = snap.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds[0], EventKind::PushBatch);
        assert!(kinds.contains(&EventKind::QueryDegraded));
        assert!(snap.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(snap.events.windows(2).all(|w| w[0].tick <= w[1].tick));
    }

    #[test]
    fn render_text_is_nonempty_and_structured() {
        let text = exercised().snapshot().render_text();
        assert!(text.contains("hindex_engine_items_total 100"));
        assert!(text.contains("hindex_engine_shard_items_total{shard=\"0\"} 64"));
        assert!(text.contains("# TYPE hindex_engine_routing_skew gauge"));
        assert!(text.contains("hindex_engine_batch_size_hindex"));
        assert!(text.contains("hindex_bank_tiles_total 4"));
        assert!(text.contains("hindex_bank_hash_reuse"));
        assert!(text.contains("hindex_engine_restarts_total 1"));
        assert!(text.contains("hindex_engine_items_lost_total 7"));
        assert!(text.contains("hindex_engine_replay_words{shard=\"1\"} 48"));
        assert!(text.contains("hindex_engine_recovery_count 1"));
        assert!(text.contains("hindex_engine_views_published_total 1"));
        assert!(text.contains("hindex_engine_published_epoch 2"));
        assert!(text.contains("hindex_engine_reader_queries_total 2"));
        assert!(text.contains("hindex_engine_publish_count 1"));
        assert!(text.lines().count() > 40);
    }

    #[test]
    fn fresh_observer_renders_zeroes() {
        let text = EngineObserver::new(4).snapshot().render_text();
        assert!(text.contains("hindex_engine_items_total 0"));
        assert!(text.contains("hindex_engine_shards 4"));
    }

    #[test]
    fn out_of_range_shard_is_ignored() {
        let o = EngineObserver::new(1);
        o.on_flush(0, 99, 10, false);
        o.on_queue_depth(99, 5);
        let snap = o.snapshot();
        assert_eq!(snap.per_shard_items, vec![0]);
        assert_eq!(snap.flushes, 1);
    }

    #[test]
    fn identical_call_sequences_snapshot_identically() {
        let a = exercised().snapshot();
        let b = exercised().snapshot();
        assert_eq!(a.items, b.items);
        assert_eq!(a.per_shard_items, b.per_shard_items);
        assert_eq!(a.events, b.events);
        assert_eq!(a.batch_h_index, b.batch_h_index);
    }
}
