//! Bounded per-shard replay logs for self-healing shards.
//!
//! A [`ReplayLog`] holds every batch dispatched to a shard since the
//! newest recovery base known to cover it, as a contiguous ordinal
//! range `[start, next)`. Recovery resends the suffix `[base, next)`
//! after respawning the shard from a recovery base cut at batch
//! ordinal `base`; that is exactly the stream the dead worker would
//! have applied next, so the healed shard is bit-identical to an
//! uninterrupted one.
//!
//! The log is *bounded*: when it outgrows its word budget it evicts
//! its oldest entries. Eviction is honest — the engine learns how
//! many entries (and how many never-delivered ones) were dropped, and
//! a shard whose newest base falls before `start` is declared
//! unrecoverable rather than silently replayed from a gap.
//!
//! Space accounting: log words are *scratch* (transient recovery
//! state), reported through
//! [`SpaceUsage::scratch_words`](hindex_common::SpaceUsage), never
//! `space_words` — the estimator-space ledger stays comparable with
//! the paper's bounds.

use std::collections::VecDeque;

/// One logged batch.
#[derive(Debug)]
struct LogEntry<T> {
    batch: Vec<T>,
    /// Whether the batch has ever been successfully handed to a worker
    /// (and therefore counted as flushed). Evicting an undelivered
    /// entry loses its updates for good.
    delivered: bool,
}

/// What a [`ReplayLog::push`] eviction dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Evicted {
    /// Entries dropped from the front of the log.
    pub entries: u64,
    /// Items inside dropped entries that were never delivered to any
    /// worker — these updates are lost for good.
    pub undelivered_items: u64,
}

/// A contiguous suffix of a shard's batch stream, replayable in order.
#[derive(Debug)]
pub(crate) struct ReplayLog<T> {
    entries: VecDeque<LogEntry<T>>,
    /// Ordinal of `entries.front()`; the log covers `[start, next())`.
    start: u64,
    /// Words currently held, `items × item_words`.
    words: usize,
    /// Word budget; the newest entry is always kept even when it alone
    /// exceeds the budget (dropping it would lose data immediately).
    budget: usize,
    /// Words per item, from `size_of::<T>()` rounded up to u64 words.
    item_words: usize,
}

impl<T: Clone> ReplayLog<T> {
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            start: 0,
            words: 0,
            budget,
            item_words: std::mem::size_of::<T>().div_ceil(std::mem::size_of::<u64>()).max(1),
        }
    }

    /// Ordinal one past the newest logged batch (= total batches ever
    /// pushed, since ordinals are assigned by push order).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "ordinals count batches, one per dispatch"
    )]
    pub(crate) fn next(&self) -> u64 {
        self.start + self.entries.len() as u64
    }

    /// Ordinal of the oldest retained batch.
    pub(crate) fn start(&self) -> u64 {
        self.start
    }

    /// Words currently held by the log.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Items held across all retained entries.
    #[cfg(test)]
    pub(crate) fn items(&self) -> u64 {
        self.entries.iter().map(|e| e.batch.len() as u64).sum()
    }

    /// Items held by entries that were never delivered to any worker.
    pub(crate) fn undelivered_items(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| !e.delivered)
            .map(|e| e.batch.len() as u64)
            .sum()
    }

    /// Appends the next batch (ordinal [`Self::next`]), evicting from
    /// the front if the budget is exceeded. The freshly pushed entry is
    /// exempt from eviction.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`words` sums the sizes of batches held in memory, and each subtraction removes a batch it added; ordinals and eviction counts step by one per batch"
    )]
    pub(crate) fn push(&mut self, batch: Vec<T>) -> Evicted {
        self.words += batch.len() * self.item_words;
        self.entries.push_back(LogEntry { batch, delivered: false });
        let mut evicted = Evicted::default();
        while self.words > self.budget && self.entries.len() > 1 {
            // Loop guard: `entries.len() > 1` ⇒ the front exists.
            let Some(front) = self.entries.pop_front() else { break };
            self.words -= front.batch.len() * self.item_words;
            self.start += 1;
            evicted.entries += 1;
            if !front.delivered {
                evicted.undelivered_items += front.batch.len() as u64;
            }
        }
        evicted
    }

    /// Marks the newest entry as delivered (called right after a
    /// successful direct send).
    pub(crate) fn mark_newest_delivered(&mut self) {
        if let Some(e) = self.entries.back_mut() {
            e.delivered = true;
        }
    }

    /// Drops every entry with ordinal `< upto` — they are covered by a
    /// recovery base and will never be replayed.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`words` sums the sizes of batches held in memory, and each subtraction removes a batch it added; ordinals step by one per batch"
    )]
    pub(crate) fn trim_to(&mut self, upto: u64) {
        while self.start < upto {
            let Some(front) = self.entries.pop_front() else { break };
            self.words -= front.batch.len() * self.item_words;
            self.start += 1;
        }
    }

    /// The replay suffix `[from, next)`: `(ordinal, batch clone,
    /// was_delivered)` triples in order. `from` must be `≥ start` —
    /// callers check recoverability first.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "ordinals count batches, one per dispatch"
    )]
    pub(crate) fn replay_from(&self, from: u64) -> Vec<(u64, Vec<T>, bool)> {
        let skip = usize::try_from(from.saturating_sub(self.start)).unwrap_or(usize::MAX);
        self.entries
            .iter()
            .enumerate()
            .skip(skip)
            .map(|(i, e)| (self.start + i as u64, e.batch.clone(), e.delivered))
            .collect()
    }

    /// Marks every entry as delivered (called after a successful
    /// replay: the new worker lineage has received the whole suffix).
    pub(crate) fn mark_all_delivered(&mut self) {
        for e in &mut self.entries {
            e.delivered = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinals_track_pushes_and_trims() {
        let mut log: ReplayLog<u64> = ReplayLog::new(1 << 20);
        assert_eq!(log.next(), 0);
        log.push(vec![1, 2, 3]);
        log.mark_newest_delivered();
        log.push(vec![4]);
        assert_eq!((log.start(), log.next()), (0, 2));
        assert_eq!(log.items(), 4);
        assert_eq!(log.undelivered_items(), 1);
        log.trim_to(1);
        assert_eq!((log.start(), log.next()), (1, 2));
        assert_eq!(log.items(), 1);
        // Trimming past the end empties but never underflows.
        log.trim_to(10);
        assert_eq!((log.start(), log.next()), (2, 2));
        assert_eq!(log.words(), 0);
    }

    #[test]
    fn replay_suffix_is_contiguous_and_ordered() {
        let mut log: ReplayLog<u64> = ReplayLog::new(1 << 20);
        for k in 0..5u64 {
            log.push(vec![k * 10, k * 10 + 1]);
            log.mark_newest_delivered();
        }
        log.trim_to(2);
        let replay = log.replay_from(3);
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[0].0, 3);
        assert_eq!(replay[0].1, vec![30, 31]);
        assert_eq!(replay[1].0, 4);
        assert!(replay.iter().all(|(_, _, delivered)| *delivered));
    }

    #[test]
    fn budget_evicts_oldest_but_keeps_newest() {
        // Budget of 4 words; each push carries 3 items (3 words).
        let mut log: ReplayLog<u64> = ReplayLog::new(4);
        assert_eq!(log.push(vec![1, 2, 3]), Evicted::default());
        log.mark_newest_delivered();
        let ev = log.push(vec![4, 5, 6]);
        assert_eq!(ev.entries, 1);
        assert_eq!(ev.undelivered_items, 0); // front was delivered
        assert_eq!(log.start(), 1);
        // An undelivered front counts its items as lost.
        let ev = log.push(vec![7, 8, 9]);
        assert_eq!(ev.entries, 1);
        assert_eq!(ev.undelivered_items, 3);
        // A single oversized batch survives despite the budget.
        let ev = log.push(vec![0; 100]);
        assert_eq!(ev.entries, 1);
        assert_eq!(log.next(), 4);
        assert_eq!(log.items(), 100);
        assert!(log.words() > 4);
    }
}
