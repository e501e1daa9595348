//! Uniform reservoir sampling (Vitter's Algorithm R).
//!
//! Algorithm 7 of the paper keeps, for every threshold level, a uniform
//! sample `T_i` of the papers whose citation count cleared that level;
//! the decode then majority-tests the authors of the sampled papers.
//! [`Reservoir`] is that primitive: a fixed-capacity uniform sample of
//! an unbounded stream.

use hindex_common::SpaceUsage;
use rand::Rng;

/// A fixed-capacity uniform sample over a stream of items.
///
/// ```
/// use hindex_sketch::Reservoir;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut r = Reservoir::new(10);
/// let mut rng = StdRng::seed_from_u64(0);
/// for item in 0..1000u64 {
///     r.offer(item, &mut rng);
/// }
/// assert_eq!(r.items().len(), 10);
/// assert_eq!(r.seen(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    items: Vec<T>,
    seen: u64,
}

impl<T> Reservoir<T> {
    /// Creates an empty reservoir holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            items: Vec::with_capacity(capacity),
            seen: 0,
        }
    }

    /// Offers one item; it is retained with probability
    /// `capacity / seen`. `seen` saturates: `from_parts` takes it from
    /// the caller (a decoded frame), so it may already be `u64::MAX`.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen = self.seen.saturating_add(1);
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            // `items` is full here, so `get_mut` is the `j < capacity` test.
            let j = rng.random_range(0..self.seen);
            if let Some(slot) = usize::try_from(j).ok().and_then(|j| self.items.get_mut(j)) {
                *slot = item;
            }
        }
    }

    /// Merges `other` into `self`: afterwards `self` is a uniform
    /// sample of the *union* of both streams, as if every item had been
    /// offered to one reservoir.
    ///
    /// Exactness: the number of survivors drawn from each side follows
    /// the hypergeometric law of a uniform `k`-subset of the combined
    /// stream (simulated by sequential weighted draws), and each side's
    /// contribution is a uniform without-replacement pick from its
    /// sample — which is itself uniform over that side's stream. Unlike
    /// the linear sketches, the merged state is *distributionally*
    /// correct, not bit-identical to single-stream ingestion.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "`k ≤ capacity` fits usize, draws decrement only a non-zero remainder, and the draw ranges are at most the items' lengths"
    )]
    pub fn merge_with<R: Rng + ?Sized>(&mut self, other: &Self, rng: &mut R)
    where
        T: Clone,
    {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        if other.seen == 0 {
            return;
        }
        // `seen` is caller data (`from_parts`), so the sums saturate.
        let total = self.seen.saturating_add(other.seen);
        let k = (self.capacity as u64).min(total) as usize;
        let (mut rem_a, mut rem_b) = (self.seen, other.seen);
        let (mut take_a, mut take_b) = (0usize, 0usize);
        for _ in 0..k {
            if rng.random_range(0..rem_a.saturating_add(rem_b)) < rem_a {
                take_a += 1;
                rem_a -= 1;
            } else {
                take_b += 1;
                rem_b -= 1;
            }
        }
        let mut a = std::mem::take(&mut self.items);
        let mut b = other.items.clone();
        let mut out = Vec::with_capacity(k);
        for _ in 0..take_a {
            let i = rng.random_range(0..a.len() as u64) as usize;
            out.push(a.swap_remove(i));
        }
        for _ in 0..take_b {
            let i = rng.random_range(0..b.len() as u64) as usize;
            out.push(b.swap_remove(i));
        }
        self.items = out;
        self.seen = total;
    }

    /// Rebuilds a reservoir from its observable state, re-validating
    /// the structural invariants totally (no panics): positive
    /// capacity and `items.len() = min(seen, capacity)` — the fill law
    /// every reachable reservoir satisfies. Returns `None` if the
    /// parts are inconsistent; serialisation decoders map that to a
    /// typed error.
    #[must_use]
    pub fn from_parts(capacity: usize, items: Vec<T>, seen: u64) -> Option<Self> {
        if capacity == 0 {
            return None;
        }
        if items.len() as u64 != seen.min(capacity as u64) {
            return None;
        }
        Some(Self { capacity, items, seen })
    }

    /// The current sample (uniform over everything offered).
    #[must_use]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of items offered so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Whether the reservoir has filled to capacity.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }
}

impl<T> SpaceUsage for Reservoir<T> {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "word counts of allocated items fit in usize"
    )]
    fn space_words(&self) -> usize {
        // One word per retained item (items in this workspace are ids or
        // id pairs; multi-word items are counted by their holders) plus
        // the seen counter.
        self.items.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn offering_past_a_huge_seen_count_saturates() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = Reservoir::from_parts(2, vec![1u64, 2], u64::MAX).unwrap();
        r.offer(3, &mut rng);
        assert_eq!(r.seen(), u64::MAX);
        assert_eq!(r.items().len(), 2);
    }

    #[test]
    fn merging_huge_seen_counts_saturates() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut a = Reservoir::from_parts(2, vec![1u64, 2], u64::MAX).unwrap();
        let b = Reservoir::from_parts(2, vec![3u64], 1).unwrap();
        a.merge_with(&b, &mut rng);
        assert_eq!(a.seen(), u64::MAX);
        assert_eq!(a.items().len(), 2);
    }

    #[test]
    fn fills_then_caps() {
        let mut r = Reservoir::new(5);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..100u64 {
            r.offer(i, &mut rng);
            assert!(r.items().len() <= 5);
        }
        assert!(r.is_full());
        assert_eq!(r.seen(), 100);
    }

    #[test]
    fn small_streams_kept_exactly() {
        let mut r = Reservoir::new(10);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..7u64 {
            r.offer(i, &mut rng);
        }
        let mut kept: Vec<u64> = r.items().to_vec();
        kept.sort_unstable();
        assert_eq!(kept, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn inclusion_probability_uniform() {
        // Each of 50 items should land in a capacity-10 reservoir with
        // probability 1/5; check empirically over many trials.
        let n = 50u64;
        let cap = 10usize;
        let trials = 3000u64;
        let mut counts = vec![0u64; n as usize];
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(t);
            let mut r = Reservoir::new(cap);
            for i in 0..n {
                r.offer(i, &mut rng);
            }
            for &i in r.items() {
                counts[i as usize] += 1;
            }
        }
        let expected = trials as f64 * cap as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.8 && (c as f64) < expected * 1.2,
                "item {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Reservoir::<u64>::new(0);
    }

    #[test]
    fn merge_counts_and_provenance() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = Reservoir::new(8);
        let mut b = Reservoir::new(8);
        for i in 0..100u64 {
            a.offer(i, &mut rng);
        }
        for i in 100..130u64 {
            b.offer(i, &mut rng);
        }
        a.merge_with(&b, &mut rng);
        assert_eq!(a.seen(), 130);
        assert_eq!(a.items().len(), 8);
        assert!(a.items().iter().all(|&i| i < 130));
    }

    #[test]
    fn merge_of_small_sides_keeps_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = Reservoir::new(10);
        let mut b = Reservoir::new(10);
        for i in 0..3u64 {
            a.offer(i, &mut rng);
        }
        for i in 3..7u64 {
            b.offer(i, &mut rng);
        }
        a.merge_with(&b, &mut rng);
        let mut kept: Vec<u64> = a.items().to_vec();
        kept.sort_unstable();
        assert_eq!(kept, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn merge_inclusion_probability_uniform() {
        // 60 items split unevenly across two reservoirs of capacity 10:
        // after merging, every item should survive with probability
        // 10/60 regardless of which side it came from.
        let n = 60u64;
        let split = 45u64;
        let cap = 10usize;
        let trials = 3000u64;
        let mut counts = vec![0u64; n as usize];
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(t);
            let mut a = Reservoir::new(cap);
            let mut b = Reservoir::new(cap);
            for i in 0..split {
                a.offer(i, &mut rng);
            }
            for i in split..n {
                b.offer(i, &mut rng);
            }
            a.merge_with(&b, &mut rng);
            for &i in a.items() {
                counts[i as usize] += 1;
            }
        }
        let expected = trials as f64 * cap as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.75 && (c as f64) < expected * 1.25,
                "item {i}: {c} vs {expected}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_never_exceeds_capacity(cap in 1usize..20, n in 0u64..500, seed in proptest::num::u64::ANY) {
            let mut r = Reservoir::new(cap);
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..n {
                r.offer(i, &mut rng);
            }
            proptest::prop_assert!(r.items().len() <= cap);
            proptest::prop_assert_eq!(r.items().len(), (n as usize).min(cap));
            // Every retained item came from the stream.
            proptest::prop_assert!(r.items().iter().all(|&i| i < n));
        }
    }
}
