//! Exact recovery of 1-sparse vectors from a constant-size linear
//! sketch.
//!
//! The sketch keeps three quantities over the update stream
//! `(i, δ)` (meaning `V[i] += δ`):
//!
//! * `ℓ = Σ δ` — the total mass,
//! * `z = Σ δ·i` — the index-weighted mass,
//! * `f = Σ δ·rⁱ mod p` — a polynomial fingerprint at a random point
//!   `r` of the Mersenne field.
//!
//! If `V` is exactly 1-sparse with `V[i] = v ≠ 0`, then `ℓ = v`,
//! `z = v·i`, and `f = v·rⁱ`; the decode recomputes the fingerprint
//! from the candidate `(z/ℓ, ℓ)` and accepts only on a match. A vector
//! that is *not* 1-sparse passes the fingerprint test with probability
//! at most `max_index/p < 2⁻²⁰` for any realistic index domain
//! (Schwartz–Zippel on the degree-`max_index` polynomial difference).

use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use hindex_common::SpaceUsage;
use hindex_hashing::field::MERSENNE_P;
use hindex_hashing::{from_i64, mersenne_add, mersenne_mul, mersenne_pow, PowerLadder};
use rand::Rng;

/// Maximum index accepted by the sketches: indices live in the Mersenne
/// field, so they must be below `p = 2⁶¹ − 1`.
pub const MAX_INDEX: u64 = MERSENNE_P - 1;

/// Decode result of a [`OneSparseRecovery`] sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// The sketched vector is (whp) the zero vector.
    Zero,
    /// The sketched vector is (whp) exactly 1-sparse: `V[index] = value`.
    One {
        /// The single non-zero coordinate.
        index: u64,
        /// Its value (signed: turnstile updates are supported).
        value: i64,
    },
    /// The sketched vector has two or more non-zero coordinates (whp).
    NotSparse,
}

/// Linear sketch recovering a 1-sparse vector exactly; three words plus
/// the random evaluation point.
///
/// `Copy`: the state is four machine words, which lets
/// the sparse decoder's scratch refresh its working grid with a
/// plain memcpy instead of a clone loop.
#[derive(Debug, Clone, Copy)]
pub struct OneSparseRecovery {
    ell: i128,
    z: i128,
    fingerprint: u64,
    r: u64,
}

impl OneSparseRecovery {
    /// Creates an empty sketch with a random fingerprint point.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::with_point(rng.random_range(1..MERSENNE_P))
    }

    /// Creates an empty sketch with an explicit fingerprint point
    /// (tests; also lets [`super::sparse::SparseRecovery`] share one
    /// point across cells).
    #[must_use]
    pub fn with_point(r: u64) -> Self {
        assert!((1..MERSENNE_P).contains(&r), "fingerprint point must be in [1, p)");
        Self {
            ell: 0,
            z: 0,
            fingerprint: 0,
            r,
        }
    }

    /// The fingerprint evaluation point.
    #[must_use]
    pub(crate) fn point(&self) -> u64 {
        self.r
    }

    /// Applies the update `V[index] += delta`.
    ///
    /// # Panics
    ///
    /// Panics if `index > MAX_INDEX` (indices must fit in the field).
    pub fn update(&mut self, index: u64, delta: i64) {
        self.update_with_power(index, delta, mersenne_pow(self.r, index));
    }

    /// Like [`Self::update`] but with `rⁱ` supplied by the caller, so
    /// higher-level sketches that fan one update out to many cells pay
    /// for the exponentiation once.
    ///
    /// # Panics
    ///
    /// Panics if `index > MAX_INDEX` or `r_pow_index` is inconsistent in
    /// debug builds.
    pub fn update_with_power(&mut self, index: u64, delta: i64, r_pow_index: u64) {
        debug_assert_eq!(r_pow_index, mersenne_pow(self.r, index));
        self.update_with_term(index, delta, mersenne_mul(from_i64(delta), r_pow_index));
    }

    /// Applies `V[index] -= value`. Unlike `update_with_power(index,
    /// -value, …)` this also retracts `i64::MIN`, whose negation does not
    /// fit an `i64`: it is retracted as `i64::MAX`, then 1.
    pub(crate) fn retract_with_power(&mut self, index: u64, value: i64, r_pow_index: u64) {
        if let Some(neg) = value.checked_neg() {
            self.update_with_power(index, neg, r_pow_index);
        } else {
            self.update_with_power(index, i64::MAX, r_pow_index);
            self.update_with_power(index, 1, r_pow_index);
        }
    }

    /// Like [`Self::update_with_power`] but with the whole fingerprint
    /// increment `term = (δ mod p)·rⁱ mod p` supplied. The term depends
    /// only on `(index, delta, r)`, so a structure fanning one update
    /// out to many same-point cells (an s-sparse grid, an ℓ₀ level
    /// stack) computes it **once** and every cell update reduces to
    /// three additions — no multiply, no reduction.
    ///
    /// # Panics
    ///
    /// Panics if `index > MAX_INDEX`; debug builds also verify `term`
    /// against the fingerprint point.
    pub(crate) fn update_with_term(&mut self, index: u64, delta: i64, term: u64) {
        assert!(index <= MAX_INDEX, "index {index} outside the field domain");
        debug_assert_eq!(
            term,
            mersenne_mul(from_i64(delta), mersenne_pow(self.r, index))
        );
        // ℓ and z accumulate mod 2¹²⁸ (two's complement). Extreme
        // streams — |δ| near 2⁶³ against indices near 2⁶¹ — can push an
        // *intermediate* Σ δ·i past i128 range even though every
        // decodable (≤1-sparse) final state fits comfortably (|v·i| <
        // 2¹²⁴). Wrapping arithmetic keeps the partial sums exact mod
        // 2¹²⁸, so any representable final value is recovered bit-exactly
        // and cancellation still returns to zero; non-representable
        // states are only reachable for vectors the decode rejects via
        // the fingerprint anyway.
        self.ell = self.ell.wrapping_add(i128::from(delta));
        self.z = self
            .z
            .wrapping_add(i128::from(delta).wrapping_mul(i128::from(index)));
        self.fingerprint = mersenne_add(self.fingerprint, term);
        hindex_common::debug_invariant!(
            hindex_hashing::is_canonical(self.fingerprint),
            "1-sparse fingerprint left the field after update"
        );
    }

    /// Merges another sketch built with the same fingerprint point
    /// (linearity).
    ///
    /// # Panics
    ///
    /// Panics if the two sketches use different points.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.r, other.r, "cannot merge sketches with different points");
        self.ell = self.ell.wrapping_add(other.ell);
        self.z = self.z.wrapping_add(other.z);
        self.fingerprint = mersenne_add(self.fingerprint, other.fingerprint);
        hindex_common::debug_invariant!(
            hindex_hashing::is_canonical(self.fingerprint),
            "1-sparse fingerprint left the field after merge"
        );
    }

    /// Attempts to decode the sketched vector.
    #[must_use]
    pub fn decode(&self) -> Recovery {
        self.decode_by(|index| mersenne_pow(self.r, index))
    }

    /// [`Self::decode`] with the candidate's `rⁱ` read from a ladder
    /// for this sketch's point: at most 8 lookups and 7 multiplies
    /// instead of a square-and-multiply chain, and bit-identical to it
    /// ([`PowerLadder::pow`] equals `mersenne_pow`). This is the check
    /// an s-sparse grid runs on every cell of every decode.
    pub(crate) fn decode_with_ladder(&self, ladder: &PowerLadder) -> Recovery {
        debug_assert_eq!(ladder.base(), self.r, "ladder is for another point");
        self.decode_by(|index| ladder.pow(index))
    }

    /// The one decode body; `pow(i)` must return `rⁱ mod p`.
    fn decode_by(&self, pow: impl FnOnce(u64) -> u64) -> Recovery {
        if self.ell == 0 && self.z == 0 && self.fingerprint == 0 {
            return Recovery::Zero;
        }
        // `checked_rem` is `None` exactly where `/` would panic: ℓ = 0,
        // and ℓ = −1 with z = i128::MIN, whose quotient 2¹²⁷ lies
        // outside the field anyway. Neither state is 1-sparse.
        if self.z.checked_rem(self.ell) == Some(0) {
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "`checked_rem` returned `Some`, so `z / ell` neither divides by zero nor overflows"
            )]
            let index = self.z / self.ell;
            if (0..=i128::from(MAX_INDEX)).contains(&index) {
                #[expect(clippy::cast_possible_truncation, reason = "`index ∈ 0..=MAX_INDEX`")]
                let index = index as u64;
                if let Ok(value) = i64::try_from(self.ell) {
                    if mersenne_mul(from_i64(value), pow(index)) == self.fingerprint {
                        return Recovery::One { index, value };
                    }
                }
            }
        }
        Recovery::NotSparse
    }
}

impl OneSparseRecovery {
    /// The raw `(ℓ, z, f, r)` state, for serialisation paths that
    /// store cells without repeating the shared point.
    pub(crate) fn raw_parts(&self) -> (i128, i128, u64, u64) {
        (self.ell, self.z, self.fingerprint, self.r)
    }

    /// Rebuilds a sketch from raw state, re-validating the constructor
    /// invariants with typed errors instead of asserts. Crate-internal:
    /// the s-sparse grid serialises its cells as bare `(ℓ, z, f)`
    /// triples (the point is shared with the checksum) and needs a
    /// total way back.
    pub(crate) fn from_raw_parts(
        ell: i128,
        z: i128,
        fingerprint: u64,
        r: u64,
    ) -> Result<Self, SnapshotError> {
        if !(1..MERSENNE_P).contains(&r) {
            return Err(SnapshotError::Invalid("fingerprint point outside [1, p)"));
        }
        if fingerprint >= MERSENNE_P {
            return Err(SnapshotError::Invalid("fingerprint outside [0, p)"));
        }
        Ok(Self { ell, z, fingerprint, r })
    }
}

/// Payload: `ℓ` and `z` as two's-complement 128-bit words, then the
/// fingerprint and its evaluation point. Decode re-validates the
/// field-membership invariants (`r ∈ [1, p)`, canonical fingerprint).
impl Snapshot for OneSparseRecovery {
    const TAG: u8 = 5;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_i128(self.ell);
        w.put_i128(self.z);
        w.put_u64(self.fingerprint);
        w.put_u64(self.r);
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let ell = r.get_i128()?;
        let z = r.get_i128()?;
        let fingerprint = r.get_u64()?;
        let point = r.get_u64()?;
        Self::from_raw_parts(ell, z, fingerprint, point)
    }
}

impl SpaceUsage for OneSparseRecovery {
    fn space_words(&self) -> usize {
        // ℓ, z (two words each as 128-bit), fingerprint, point.
        6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sketch(seed: u64) -> OneSparseRecovery {
        OneSparseRecovery::new(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn empty_decodes_zero() {
        assert_eq!(sketch(0).decode(), Recovery::Zero);
    }

    #[test]
    fn single_insert_recovers() {
        let mut s = sketch(1);
        s.update(42, 7);
        assert_eq!(s.decode(), Recovery::One { index: 42, value: 7 });
    }

    #[test]
    fn accumulated_updates_to_one_index() {
        let mut s = sketch(2);
        for _ in 0..100 {
            s.update(9999, 3);
        }
        assert_eq!(s.decode(), Recovery::One { index: 9999, value: 300 });
    }

    #[test]
    fn index_zero_works() {
        // index 0 is the classic trap for the z/ℓ construction; the
        // fingerprint disambiguates it from the zero vector.
        let mut s = sketch(3);
        s.update(0, 5);
        assert_eq!(s.decode(), Recovery::One { index: 0, value: 5 });
    }

    #[test]
    fn insert_then_delete_returns_zero() {
        let mut s = sketch(4);
        s.update(7, 10);
        s.update(7, -10);
        assert_eq!(s.decode(), Recovery::Zero);
    }

    #[test]
    fn delete_different_index_not_sparse() {
        let mut s = sketch(5);
        s.update(7, 10);
        s.update(8, -10);
        // ℓ = 0 but z ≠ 0: two non-zeros.
        assert_eq!(s.decode(), Recovery::NotSparse);
    }

    #[test]
    fn two_distinct_indices_not_sparse() {
        for seed in 0..50 {
            let mut s = sketch(seed);
            s.update(3, 1);
            s.update(5, 1);
            assert_eq!(s.decode(), Recovery::NotSparse, "seed {seed}");
        }
    }

    #[test]
    fn adversarial_mean_index_collision_caught() {
        // V[10] = 1, V[30] = 1: z/ℓ = 20, a plausible-looking index the
        // fingerprint must reject.
        for seed in 0..50 {
            let mut s = sketch(seed);
            s.update(10, 1);
            s.update(30, 1);
            assert_eq!(s.decode(), Recovery::NotSparse, "seed {seed}");
        }
    }

    #[test]
    fn reduction_back_to_one_sparse_recovers() {
        let mut s = sketch(6);
        s.update(3, 4);
        s.update(1_000_000, 2);
        s.update(3, -4);
        assert_eq!(
            s.decode(),
            Recovery::One { index: 1_000_000, value: 2 }
        );
    }

    #[test]
    fn negative_value_recovered() {
        let mut s = sketch(7);
        s.update(123, -9);
        assert_eq!(s.decode(), Recovery::One { index: 123, value: -9 });
    }

    #[test]
    fn merge_is_linear() {
        let point = 987_654_321u64;
        let mut a = OneSparseRecovery::with_point(point);
        let mut b = OneSparseRecovery::with_point(point);
        a.update(50, 2);
        b.update(50, 3);
        a.merge(&b);
        assert_eq!(a.decode(), Recovery::One { index: 50, value: 5 });
    }

    #[test]
    fn merge_cancels_across_sketches() {
        let point = 13u64;
        let mut a = OneSparseRecovery::with_point(point);
        let mut b = OneSparseRecovery::with_point(point);
        a.update(50, 2);
        a.update(60, 1);
        b.update(50, -2);
        a.merge(&b);
        assert_eq!(a.decode(), Recovery::One { index: 60, value: 1 });
    }

    #[test]
    #[should_panic(expected = "different points")]
    fn merge_mismatched_points_panics() {
        let mut a = OneSparseRecovery::with_point(5);
        let b = OneSparseRecovery::with_point(6);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "outside the field domain")]
    fn huge_index_panics() {
        let mut s = sketch(8);
        s.update(u64::MAX, 1);
    }

    #[test]
    fn large_indices_near_domain_edge() {
        let mut s = sketch(9);
        s.update(MAX_INDEX, 1);
        assert_eq!(s.decode(), Recovery::One { index: MAX_INDEX, value: 1 });
    }

    #[test]
    fn space_is_constant() {
        use hindex_common::SpaceUsage;
        let mut s = sketch(10);
        let before = s.space_words();
        for i in 0..1000 {
            s.update(i, 1);
        }
        assert_eq!(s.space_words(), before);
    }

    proptest::proptest! {
        #[test]
        fn prop_one_sparse_always_recovered(
            seed in proptest::num::u64::ANY,
            index in 0u64..=MAX_INDEX,
            reps in proptest::collection::vec(1i64..1000, 1..20),
        ) {
            let mut s = sketch(seed);
            let mut total = 0i64;
            for d in reps {
                s.update(index, d);
                total += d;
            }
            proptest::prop_assert_eq!(s.decode(), Recovery::One { index, value: total });
        }

        #[test]
        fn prop_multi_sparse_rejected(
            seed in 0u64..256,
            i in 0u64..1_000_000,
            j in 0u64..1_000_000,
            vi in 1i64..100,
            vj in 1i64..100,
        ) {
            proptest::prop_assume!(i != j);
            let mut s = sketch(seed);
            s.update(i, vi);
            s.update(j, vj);
            proptest::prop_assert_eq!(s.decode(), Recovery::NotSparse);
        }

        // With `debug_invariants` armed, every update/merge below also
        // executes the canonicality assertions — this is the
        // "invariant layer exercised in CI, not just compiled" check.
        #[test]
        fn prop_split_merge_is_bit_identical_to_serial(
            seed in proptest::num::u64::ANY,
            updates in proptest::collection::vec(
                (0u64..=MAX_INDEX, proptest::num::i64::ANY),
                1..24,
            ),
            split in 0usize..24,
        ) {
            let point = OneSparseRecovery::new(
                &mut StdRng::seed_from_u64(seed)
            ).point();
            let mut serial = OneSparseRecovery::with_point(point);
            let mut left = OneSparseRecovery::with_point(point);
            let mut right = OneSparseRecovery::with_point(point);
            let cut = split.min(updates.len());
            for (k, &(i, d)) in updates.iter().enumerate() {
                serial.update(i, d);
                if k < cut { left.update(i, d); } else { right.update(i, d); }
            }
            left.merge(&right);
            // 1-sparse consistency: the sketch is linear, so any
            // split/merge of the stream yields the same state, bit for
            // bit, and hence the same decode.
            proptest::prop_assert_eq!(left.frame_digest(), serial.frame_digest());
            proptest::prop_assert_eq!(left.decode(), serial.decode());
        }

        #[test]
        fn prop_full_cancellation_is_zero(
            seed in proptest::num::u64::ANY,
            updates in proptest::collection::vec((0u64..10_000, 1i64..50), 0..20),
        ) {
            let mut s = sketch(seed);
            for &(i, d) in &updates {
                s.update(i, d);
            }
            for &(i, d) in &updates {
                s.update(i, -d);
            }
            proptest::prop_assert_eq!(s.decode(), Recovery::Zero);
        }
    }
}
