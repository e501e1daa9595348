//! Distinct-element (F₀) estimation.
//!
//! Algorithm 6 of the paper needs a `(1±ε)`-approximation `y` of the
//! number of non-zero coordinates (its step 2, citing \[10\]). Two
//! estimators are provided behind the [`DistinctCounter`] trait:
//!
//! * [`Bjkst`] — the Bar-Yossef–Jayram–Kumar–Sivakumar–Trevisan
//!   level-threshold algorithm: keep the hashed items whose number of
//!   trailing zero bits is at least a rising level `z`, capped at
//!   `O(1/ε²)` retained items; estimate `|B| · 2ᶻ`. Median of
//!   `O(log 1/δ)` independent copies boosts confidence. Same
//!   `(ε, δ, poly log)` contract as the paper's \[10\].
//! * [`Kmv`] — bottom-k ("k minimum values"): keep the `k` smallest
//!   hashed values; estimate `(k−1)/u_k`. Used as an independent
//!   cross-check in the experiments.
//!
//! Both are insert-only, which matches how Algorithm 6 uses them (cash
//! register streams have non-negative updates).

use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer, FRAME_OVERHEAD};
use hindex_common::SpaceUsage;
use hindex_hashing::{Hasher64, PolynomialHash, TabulationHash};
use rand::Rng;
use std::collections::{BTreeSet, HashSet};

/// A streaming distinct-count estimator over `u64` keys.
pub trait DistinctCounter {
    /// Observes one key (duplicates are free).
    fn observe(&mut self, key: u64);

    /// Estimate of the number of distinct keys observed.
    fn estimate(&self) -> u64;
}

// ---------------------------------------------------------------------
// BJKST
// ---------------------------------------------------------------------

/// One independent BJKST instance.
#[derive(Debug, Clone)]
struct BjkstCore {
    hash: PolynomialHash,
    /// Current level: only items with `trailing_zeros(h) ≥ z` are kept.
    z: u32,
    /// Retained (hashed) items.
    buffer: HashSet<u64>,
    /// Buffer capacity `⌈c/ε²⌉`.
    cap: usize,
}

impl BjkstCore {
    fn new<R: Rng + ?Sized>(cap: usize, rng: &mut R) -> Self {
        Self {
            // Pairwise independence suffices for the BJKST analysis.
            hash: PolynomialHash::new(2, rng),
            z: 0,
            buffer: HashSet::with_capacity(cap + 1),
            cap,
        }
    }

    fn observe(&mut self, key: u64) {
        let h = self.hash.hash(key);
        if trailing_zeros_61(h) >= self.z {
            self.buffer.insert(h);
            while self.buffer.len() > self.cap {
                self.z += 1;
                let z = self.z;
                self.buffer.retain(|&v| trailing_zeros_61(v) >= z);
            }
        }
    }

    fn estimate(&self) -> u64 {
        (self.buffer.len() as u64) << self.z
    }

    /// Merges a core built with the same hash function: keep the
    /// higher level, take the union, and re-prune to capacity.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.hash, other.hash, "cores must share randomness");
        self.z = self.z.max(other.z);
        let z = self.z;
        self.buffer.retain(|&v| trailing_zeros_61(v) >= z);
        self.buffer
            .extend(other.buffer.iter().copied().filter(|&v| trailing_zeros_61(v) >= z));
        while self.buffer.len() > self.cap {
            self.z += 1;
            let z = self.z;
            self.buffer.retain(|&v| trailing_zeros_61(v) >= z);
        }
    }
}

/// Trailing zeros within the 61-bit field domain (a zero hash counts as
/// all 61 bits).
#[inline]
fn trailing_zeros_61(h: u64) -> u32 {
    if h == 0 {
        61
    } else {
        h.trailing_zeros()
    }
}

/// `(1±ε, δ)` distinct-count estimator: median of independent BJKST
/// copies.
///
/// ```
/// use hindex_sketch::{Bjkst, distinct::DistinctCounter};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut b = Bjkst::new(0.1, 0.05, &mut StdRng::seed_from_u64(0));
/// for paper in 0..500u64 {
///     b.observe(paper);
///     b.observe(paper); // duplicates are free
/// }
/// let est = b.estimate();
/// assert!((450..=550).contains(&est));
/// ```
#[derive(Debug, Clone)]
pub struct Bjkst {
    copies: Vec<BjkstCore>,
}

impl Bjkst {
    /// Creates an estimator with accuracy `ε` and failure probability
    /// `δ`: `2⌈log₂(1/δ)⌉ + 1` copies of capacity `⌈32/ε²⌉` each.
    ///
    /// # Panics
    ///
    /// Panics unless `ε, δ ∈ (0, 1)`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(epsilon: f64, delta: f64, rng: &mut R) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        let cap = (32.0 / (epsilon * epsilon)).ceil() as usize;
        let copies = 2 * ((1.0 / delta).log2().ceil() as usize) + 1;
        Self {
            copies: (0..copies.max(1)).map(|_| BjkstCore::new(cap, rng)).collect(),
        }
    }

    /// Merges another estimator that shares this one's randomness
    /// (i.e. was `clone()`d from the same instance before observing
    /// anything). The merged estimate equals the estimate of the
    /// concatenated streams — the distributed/sharded ingestion
    /// pattern.
    ///
    /// # Panics
    ///
    /// Panics if the two estimators were built independently.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.copies.len(),
            other.copies.len(),
            "estimators must share configuration"
        );
        for (a, b) in self.copies.iter_mut().zip(&other.copies) {
            a.merge(b);
        }
    }
}

impl DistinctCounter for Bjkst {
    fn observe(&mut self, key: u64) {
        for c in &mut self.copies {
            c.observe(key);
        }
    }

    fn estimate(&self) -> u64 {
        let mut ests: Vec<u64> = self.copies.iter().map(BjkstCore::estimate).collect();
        ests.sort_unstable();
        ests[ests.len() / 2]
    }
}

impl BjkstCore {
    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_nested(&self.hash);
        w.put_u32(self.z);
        w.put_usize(self.cap);
        w.put_usize(self.buffer.len());
        // HashSet iteration order is nondeterministic; serialise the
        // retained hashes sorted so equal states write equal bytes.
        let mut items: Vec<u64> = self.buffer.iter().copied().collect();
        items.sort_unstable();
        for item in items {
            w.put_u64(item);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let hash = r.get_nested::<PolynomialHash>()?;
        let z = r.get_u32()?;
        if z > 61 {
            return Err(SnapshotError::Invalid("bjkst level above the 61-bit domain"));
        }
        let cap = r.get_usize()?;
        if cap == 0 {
            return Err(SnapshotError::Invalid("bjkst capacity must be positive"));
        }
        let len = r.get_count(8)?;
        if len > cap {
            return Err(SnapshotError::Invalid("bjkst buffer exceeds its capacity"));
        }
        let mut buffer = HashSet::with_capacity(cap.min(len + 1));
        for _ in 0..len {
            let item = r.get_u64()?;
            if trailing_zeros_61(item) < z {
                return Err(SnapshotError::Invalid("bjkst buffer item below its level"));
            }
            buffer.insert(item);
        }
        Ok(Self { hash, z, buffer, cap })
    }
}

/// Payload: the copy count, then per copy a nested hash frame, the
/// current level `z`, the capacity, and the retained hashes in sorted
/// order. Decode re-validates the level invariant (`trailing_zeros ≥
/// z` for every retained item) and the capacity bound.
impl Snapshot for Bjkst {
    const TAG: u8 = 9;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_usize(self.copies.len());
        for copy in &self.copies {
            copy.write_payload(w);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let count = r.get_usize()?;
        if count == 0 {
            return Err(SnapshotError::Invalid("need at least one bjkst copy"));
        }
        if count > r.remaining() / FRAME_OVERHEAD {
            return Err(SnapshotError::Invalid("copy count larger than payload"));
        }
        let mut copies = Vec::with_capacity(count);
        for _ in 0..count {
            copies.push(BjkstCore::read_payload(r)?);
        }
        Ok(Self { copies })
    }
}

impl SpaceUsage for Bjkst {
    fn space_words(&self) -> usize {
        self.copies
            .iter()
            .map(|c| c.buffer.len() + c.hash.independence() + 1)
            .sum()
    }
}

// ---------------------------------------------------------------------
// KMV
// ---------------------------------------------------------------------

/// Bottom-k distinct-count estimator.
#[derive(Debug, Clone)]
pub struct Kmv {
    hash: TabulationHash,
    k: usize,
    /// The k smallest distinct hash values seen.
    mins: BTreeSet<u64>,
}

impl Kmv {
    /// Creates a bottom-k estimator; relative error is roughly
    /// `1/√k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(k: usize, rng: &mut R) -> Self {
        assert!(k >= 2, "k must be at least 2");
        Self {
            hash: TabulationHash::new(rng),
            k,
            mins: BTreeSet::new(),
        }
    }

    /// Creates an estimator targeting relative error `ε` (`k = ⌈4/ε²⌉`).
    #[must_use]
    pub fn for_epsilon<R: Rng + ?Sized>(epsilon: f64, rng: &mut R) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        Self::new(((4.0 / (epsilon * epsilon)).ceil() as usize).max(2), rng)
    }
}

impl DistinctCounter for Kmv {
    fn observe(&mut self, key: u64) {
        let h = self.hash.hash(key);
        if self.mins.len() < self.k {
            self.mins.insert(h);
        } else if let Some(&max) = self.mins.iter().next_back() {
            if h < max && self.mins.insert(h) {
                self.mins.pop_last();
            }
        }
    }

    fn estimate(&self) -> u64 {
        if self.mins.len() < self.k {
            // Fewer than k distinct hashes: the count is exact.
            return self.mins.len() as u64;
        }
        // `len() == k ≥ 2` here, so a back element exists; fall back to
        // the exact count rather than panic (lint L9).
        let Some(&kth) = self.mins.iter().next_back() else {
            return self.mins.len() as u64;
        };
        let kth = kth as f64;
        let unit = kth / (u64::MAX as f64 + 1.0);
        if unit <= 0.0 {
            return self.mins.len() as u64;
        }
        (((self.k - 1) as f64) / unit).round() as u64
    }
}

/// Payload: the tabulation tables as a nested frame, then `k` and the
/// retained minima in (their natural) ascending order. Decode
/// re-validates `k ≥ 2`, the `|mins| ≤ k` bound, and strict ordering.
impl Snapshot for Kmv {
    const TAG: u8 = 10;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_nested(&self.hash);
        w.put_usize(self.k);
        w.put_usize(self.mins.len());
        for &m in &self.mins {
            w.put_u64(m);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let hash = r.get_nested::<TabulationHash>()?;
        let k = r.get_usize()?;
        if k < 2 {
            return Err(SnapshotError::Invalid("k must be at least 2"));
        }
        let len = r.get_count(8)?;
        if len > k {
            return Err(SnapshotError::Invalid("kmv holds more than k minima"));
        }
        let mut mins = BTreeSet::new();
        let mut prev = None;
        for _ in 0..len {
            let m = r.get_u64()?;
            if prev.is_some_and(|p| p >= m) {
                return Err(SnapshotError::Invalid("kmv minima must be strictly increasing"));
            }
            prev = Some(m);
            mins.insert(m);
        }
        Ok(Self { hash, k, mins })
    }
}

impl SpaceUsage for Kmv {
    fn space_words(&self) -> usize {
        // Retained minima plus the 8×256-entry tabulation tables.
        self.mins.len() + 8 * 256
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bjkst_zero_and_small() {
        let mut b = Bjkst::new(0.2, 0.05, &mut StdRng::seed_from_u64(0));
        assert_eq!(b.estimate(), 0);
        for i in 0..10u64 {
            b.observe(i);
        }
        // Small counts stay exact: buffer never overflows, z stays 0.
        assert_eq!(b.estimate(), 10);
    }

    #[test]
    fn bjkst_duplicates_free() {
        let mut b = Bjkst::new(0.2, 0.05, &mut StdRng::seed_from_u64(1));
        for _ in 0..1000 {
            b.observe(42);
        }
        assert_eq!(b.estimate(), 1);
    }

    #[test]
    fn bjkst_accuracy_mid_scale() {
        for (seed, n) in [(2u64, 1_000u64), (3, 10_000), (4, 50_000)] {
            let mut b = Bjkst::new(0.1, 0.01, &mut StdRng::seed_from_u64(seed));
            for i in 0..n {
                b.observe(i.wrapping_mul(2_654_435_761).wrapping_add(1)); // spread keys
            }
            let est = b.estimate() as f64;
            assert!(
                (est - n as f64).abs() <= 0.15 * n as f64,
                "n={n} est={est}"
            );
        }
    }

    #[test]
    fn bjkst_copies_scale_with_delta() {
        let mut rng = StdRng::seed_from_u64(5);
        let loose = Bjkst::new(0.1, 0.4, &mut rng);
        let tight = Bjkst::new(0.1, 0.001, &mut rng);
        assert!(tight.copies.len() > loose.copies.len());
    }

    #[test]
    fn kmv_exact_below_k() {
        let mut k = Kmv::new(100, &mut StdRng::seed_from_u64(6));
        for i in 0..50u64 {
            k.observe(i);
            k.observe(i); // duplicate
        }
        assert_eq!(k.estimate(), 50);
    }

    #[test]
    fn kmv_accuracy_mid_scale() {
        for (seed, n) in [(7u64, 5_000u64), (8, 100_000)] {
            let mut k = Kmv::new(400, &mut StdRng::seed_from_u64(seed));
            for i in 0..n {
                k.observe(i.wrapping_mul(11_400_714_819_323_198_485).wrapping_add(3));
            }
            let est = k.estimate() as f64;
            assert!(
                (est - n as f64).abs() <= 0.15 * n as f64,
                "n={n} est={est}"
            );
        }
    }

    #[test]
    fn both_estimators_agree_roughly() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = Bjkst::new(0.1, 0.01, &mut rng);
        let mut k = Kmv::for_epsilon(0.1, &mut rng);
        let n = 20_000u64;
        for i in 0..n {
            let key = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            b.observe(key);
            k.observe(key);
        }
        let (be, ke) = (b.estimate() as f64, k.estimate() as f64);
        assert!((be - ke).abs() <= 0.25 * n as f64, "bjkst={be} kmv={ke}");
    }

    #[test]
    fn space_bounded_by_configuration() {
        use hindex_common::SpaceUsage;
        let mut b = Bjkst::new(0.2, 0.1, &mut StdRng::seed_from_u64(10));
        for i in 0..100_000u64 {
            b.observe(i);
        }
        let cap = (32.0f64 / 0.04).ceil() as usize;
        let per_copy = cap + 3;
        assert!(b.space_words() <= b.copies.len() * per_copy, "space leak");
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn kmv_tiny_k_panics() {
        let _ = Kmv::new(1, &mut StdRng::seed_from_u64(0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn prop_bjkst_exact_when_small(keys in proptest::collection::hash_set(proptest::num::u64::ANY, 0..100)) {
            // With ≤ 100 distinct keys and ε = 0.2 (cap = 800), BJKST is exact.
            let mut b = Bjkst::new(0.2, 0.1, &mut StdRng::seed_from_u64(11));
            for &k in &keys {
                b.observe(k);
                b.observe(k);
            }
            proptest::prop_assert_eq!(b.estimate(), keys.len() as u64);
        }

        #[test]
        fn prop_kmv_never_exceeds_when_small(keys in proptest::collection::hash_set(proptest::num::u64::ANY, 0..50)) {
            let mut k = Kmv::new(64, &mut StdRng::seed_from_u64(12));
            for &key in &keys {
                k.observe(key);
            }
            proptest::prop_assert_eq!(k.estimate(), keys.len() as u64);
        }
    }
}
