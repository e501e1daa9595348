//! Structured event tracing with logical timestamps.
//!
//! A [`Tracer`] keeps the most recent `capacity` [`Event`]s in a ring
//! buffer. Events carry **logical** time only — a sequence number the
//! tracer assigns plus the engine tick the caller supplies — never
//! wall-clock time, so a seeded run emits the same trace on every
//! machine (the determinism suite diffs whole traces across runs).
//! Durations measured by [`crate::clock`] live in latency histograms,
//! not in events.

use crate::lock_or_recover;
use std::collections::VecDeque;
use std::sync::Mutex;

/// What happened. Variants mirror the engine's span structure, from
/// ingestion through shard fan-out to persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A caller handed the engine a batch (`value` = items).
    PushBatch,
    /// A per-shard buffer was flushed (`value` = items in the batch).
    Flush,
    /// A flushed batch was enqueued to a shard worker (`value` =
    /// items handed over).
    ShardSend,
    /// Shard states were merged for a query (`value` = shards merged).
    Merge,
    /// An engine checkpoint was captured (`value` = shard states).
    Checkpoint,
    /// An engine was respawned from a checkpoint (`value` = shard
    /// states restored).
    Restore,
    /// A query answered in degraded mode (`value` = dead shards).
    QueryDegraded,
    /// A standalone estimator snapshot was encoded (`value` = bytes).
    SnapshotEncode,
    /// A standalone estimator snapshot was decoded (`value` = bytes).
    SnapshotDecode,
    /// Bank-kernel telemetry surfaced at a query merge (`value` =
    /// tile items dispatched through the bank so far).
    BankBatch,
    /// A shard worker's death was detected and its panic payload
    /// harvested (`value` = times this shard has now died).
    ShardPanicked,
    /// The supervisor respawned a shard from its recovery base
    /// (`value` = batches replayed from the log).
    ShardRestart,
    /// A batch could not be delivered and its updates are lost
    /// (`value` = items in the lost batch).
    BatchLost,
    /// A shard's replay log outgrew its budget and evicted its oldest
    /// batches (`value` = batches evicted); the shard is unrecoverable
    /// until a fresher recovery base covers the gap.
    ReplayOverflow,
    /// The fault harness injected a planned fault (`value` = the
    /// fault's kind code).
    FaultInjected,
    /// The router issued a read-plane publish marker to every live
    /// shard (`value` = the epoch being published). Fired from the
    /// router thread at marker issuance, so seeded runs trace the same
    /// publish sequence; the *completion* of the epoch is a gauge, not
    /// an event.
    ViewPublished,
}

impl EventKind {
    /// Stable lowercase name, used by the text exposition.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PushBatch => "push_batch",
            EventKind::Flush => "flush",
            EventKind::ShardSend => "shard_send",
            EventKind::Merge => "merge",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Restore => "restore",
            EventKind::QueryDegraded => "query_degraded",
            EventKind::SnapshotEncode => "snapshot_encode",
            EventKind::SnapshotDecode => "snapshot_decode",
            EventKind::BankBatch => "bank_batch",
            EventKind::ShardPanicked => "shard_panicked",
            EventKind::ShardRestart => "shard_restart",
            EventKind::BatchLost => "batch_lost",
            EventKind::ReplayOverflow => "replay_overflow",
            EventKind::FaultInjected => "fault_injected",
            EventKind::ViewPublished => "view_published",
        }
    }
}

/// One traced event, fully deterministic for a fixed call sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Position in the tracer's total event sequence (0-based,
    /// includes events later evicted from the ring).
    pub seq: u64,
    /// The engine's logical tick when the event fired.
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
    /// The shard involved, if the event is shard-scoped.
    pub shard: Option<u32>,
    /// Kind-specific magnitude (items, bytes, shard count, …).
    pub value: u64,
}

/// Bounded in-memory event sink.
#[derive(Debug)]
pub struct Tracer {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
}

/// Default ring capacity: enough to hold the full span structure of a
/// sizeable run without unbounded growth.
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Tracer {
    /// A tracer retaining the last `capacity` events (`0` is clamped
    /// to 1).
    #[must_use]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Ring {
                events: VecDeque::new(),
                capacity: capacity.max(1),
                next_seq: 0,
            }),
        }
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub(crate) fn record(&self, kind: EventKind, tick: u64, shard: Option<u32>, value: u64) {
        let mut ring = lock_or_recover(&self.inner);
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(Event {
            seq,
            tick,
            kind,
            shard,
            value,
        });
    }

    /// Total events ever recorded (including evicted ones).
    #[must_use]
    pub(crate) fn recorded(&self) -> u64 {
        lock_or_recover(&self.inner).next_seq
    }

    /// The retained events, oldest first.
    #[must_use]
    pub(crate) fn events(&self) -> Vec<Event> {
        lock_or_recover(&self.inner).events.iter().copied().collect()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let t = Tracer::with_capacity(8);
        t.record(EventKind::PushBatch, 1, None, 10);
        t.record(EventKind::Flush, 2, Some(3), 10);
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[0].kind, EventKind::PushBatch);
        assert_eq!(ev[1].shard, Some(3));
        assert_eq!(t.recorded(), 2);
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = Tracer::with_capacity(3);
        for i in 0..10u64 {
            t.record(EventKind::Flush, i, Some(0), i);
        }
        let ev = t.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].seq, 7);
        assert_eq!(ev[2].seq, 9);
        assert_eq!(t.recorded(), 10);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let t = Tracer::with_capacity(0);
        t.record(EventKind::Merge, 0, None, 4);
        t.record(EventKind::Merge, 1, None, 4);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::ShardSend.name(), "shard_send");
        assert_eq!(EventKind::QueryDegraded.name(), "query_degraded");
    }
}
