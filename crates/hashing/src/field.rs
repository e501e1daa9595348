//! Arithmetic over the Mersenne field 𝔽_p with `p = 2⁶¹ − 1`.
//!
//! The Mersenne structure lets us reduce a 122-bit product with two
//! shifts and adds instead of a division, which keeps polynomial hashing
//! fast enough to sit on the per-update hot path of every sketch.

/// The Mersenne prime `p = 2⁶¹ − 1`.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Reduces an arbitrary `u128` modulo `p = 2⁶¹ − 1`.
///
/// Uses the identity `2⁶¹ ≡ 1 (mod p)`: split the value into 61-bit
/// limbs and add them. Two rounds suffice for any 128-bit input.
#[inline]
#[must_use]
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "each fold leaves at most 2⁶¹ + 2⁷, so the sums fit, the cast to u64 is exact and `r -= P` runs only when r ≥ P"
)]
pub fn mersenne_reduce(x: u128) -> u64 {
    const P: u128 = MERSENNE_P as u128;
    // First round: fold the top 67 bits onto the bottom 61.
    let folded = (x & P) + (x >> 61);
    // Second round: the sum is at most ~2⁶⁸, fold once more.
    let folded = (folded & P) + (folded >> 61);
    let mut r = folded as u64;
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    #[cfg(feature = "debug_invariants")]
    {
        assert!(is_canonical(r), "mersenne_reduce produced non-canonical residue");
    }
    r
}

/// Multiplies two residues modulo `p`.
#[inline]
#[must_use]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "the product of two u64 values is below 2¹²⁸"
)]
pub fn mersenne_mul(a: u64, b: u64) -> u64 {
    mersenne_reduce(u128::from(a) * u128::from(b))
}

/// Adds two residues modulo `p`.
#[inline]
#[must_use]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "both residues are below 2⁶¹ (asserted above), so the sum fits and `s - P` runs only when s ≥ P"
)]
pub fn mersenne_add(a: u64, b: u64) -> u64 {
    debug_assert!(a < MERSENNE_P && b < MERSENNE_P);
    #[cfg(feature = "debug_invariants")]
    {
        assert!(
            is_canonical(a) && is_canonical(b),
            "mersenne_add requires canonical inputs: {a} + {b}"
        );
    }
    let s = a + b; // no overflow: both < 2⁶¹
    if s >= MERSENNE_P {
        s - MERSENNE_P
    } else {
        s
    }
}

/// Whether `x` is a canonical residue, i.e. `x < p`.
///
/// All field helpers produce canonical residues; `mersenne_add` (and the
/// `debug_invariants` feature more broadly) *requires* them. Sketch code
/// that stores field elements long-term should hold only canonical
/// values so that merges and fingerprint comparisons are bit-exact.
#[inline]
#[must_use]
pub const fn is_canonical(x: u64) -> bool {
    x < MERSENNE_P
}

/// Canonicalizes an arbitrary `u64` into a residue modulo `p`.
///
/// This is the *only* sanctioned way to bring raw machine words into the
/// field (`tests/source_rules.rs` bans open-coded `% MERSENNE_P`
/// outside this module):
/// keeping the entry points here means canonicality assertions guard
/// every conversion when `debug_invariants` is enabled.
#[inline]
#[must_use]
pub fn from_u64(x: u64) -> u64 {
    let r = if x >= MERSENNE_P { x % MERSENNE_P } else { x };
    #[cfg(feature = "debug_invariants")]
    {
        assert!(is_canonical(r), "from_u64 produced non-canonical residue");
    }
    r
}

/// Embeds a signed delta into the field: returns `delta mod p` as a
/// canonical residue, mapping negative deltas to their additive inverse.
///
/// Handles the full `i64` range including `i64::MIN` (whose magnitude is
/// not representable as a positive `i64`): `rem_euclid` in `i128` avoids
/// the overflow that `-delta` would hit.
#[inline]
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    reason = "`rem_euclid(p)` lies in `0..p`, which fits u64"
)]
pub fn from_i64(delta: i64) -> u64 {
    let r = i128::from(delta).rem_euclid(i128::from(MERSENNE_P)) as u64;
    #[cfg(feature = "debug_invariants")]
    {
        assert!(is_canonical(r), "from_i64 produced non-canonical residue");
    }
    r
}

/// Raises `base` to `exp` modulo `p` by square-and-multiply.
#[must_use]
pub fn mersenne_pow(base: u64, mut exp: u64) -> u64 {
    let mut base = from_u64(base);
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mersenne_mul(acc, base);
        }
        base = mersenne_mul(base, base);
        exp >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slow but obviously-correct reference reduction.
    fn reduce_ref(x: u128) -> u64 {
        (x % u128::from(MERSENNE_P)) as u64
    }

    #[test]
    fn p_is_the_mersenne_prime() {
        assert_eq!(MERSENNE_P, 2_305_843_009_213_693_951);
    }

    #[test]
    fn reduce_small_values() {
        assert_eq!(mersenne_reduce(0), 0);
        assert_eq!(mersenne_reduce(1), 1);
        assert_eq!(mersenne_reduce(u128::from(MERSENNE_P)), 0);
        assert_eq!(mersenne_reduce(u128::from(MERSENNE_P) + 1), 1);
        assert_eq!(mersenne_reduce(u128::from(MERSENNE_P) - 1), MERSENNE_P - 1);
    }

    #[test]
    fn reduce_extremes() {
        assert_eq!(mersenne_reduce(u128::MAX), reduce_ref(u128::MAX));
        let max_product = u128::from(MERSENNE_P - 1) * u128::from(MERSENNE_P - 1);
        assert_eq!(mersenne_reduce(max_product), reduce_ref(max_product));
    }

    #[test]
    fn mul_matches_reference() {
        let samples = [0u64, 1, 2, 12345, MERSENNE_P - 1, MERSENNE_P / 2, 1 << 60];
        for &a in &samples {
            for &b in &samples {
                let expected = reduce_ref(u128::from(a % MERSENNE_P) * u128::from(b % MERSENNE_P));
                assert_eq!(mersenne_mul(a % MERSENNE_P, b % MERSENNE_P), expected, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn add_wraps_correctly() {
        assert_eq!(mersenne_add(MERSENNE_P - 1, 1), 0);
        assert_eq!(mersenne_add(MERSENNE_P - 1, 2), 1);
        assert_eq!(mersenne_add(5, 7), 12);
    }

    #[test]
    fn pow_basics() {
        assert_eq!(mersenne_pow(2, 0), 1);
        assert_eq!(mersenne_pow(2, 10), 1024);
        // Fermat's little theorem: a^(p-1) ≡ 1 for a ≠ 0.
        for a in [2u64, 3, 65537, MERSENNE_P - 2] {
            assert_eq!(mersenne_pow(a, MERSENNE_P - 1), 1, "a={a}");
        }
        // 2^61 ≡ 1 since 2^61 = p + 1.
        assert_eq!(mersenne_pow(2, 61), 1);
    }

    #[test]
    fn from_i64_handles_extremes() {
        assert_eq!(from_i64(0), 0);
        assert_eq!(from_i64(1), 1);
        assert_eq!(from_i64(-1), MERSENNE_P - 1);
        assert_eq!(from_i64(i64::MAX), reduce_ref(i64::MAX as u128));
        // i64::MIN = -2⁶³; -2⁶³ mod (2⁶¹-1) = p - (2⁶³ mod p) = p - 4.
        assert_eq!(from_i64(i64::MIN), MERSENNE_P - 4);
        // Embedding is a homomorphism: (a + (-a)) ↦ 0.
        for d in [3i64, -17, i64::MAX, i64::MIN + 1] {
            assert_eq!(mersenne_add(from_i64(d), from_i64(-d)), 0, "d={d}");
        }
    }

    #[test]
    fn from_u64_canonicalizes() {
        assert_eq!(from_u64(0), 0);
        assert_eq!(from_u64(MERSENNE_P), 0);
        assert_eq!(from_u64(MERSENNE_P - 1), MERSENNE_P - 1);
        assert_eq!(from_u64(u64::MAX), reduce_ref(u128::from(u64::MAX)));
        assert!(is_canonical(from_u64(u64::MAX)));
    }

    proptest::proptest! {
        #[test]
        fn prop_from_i64_is_canonical_and_consistent(d in proptest::num::i64::ANY) {
            let r = from_i64(d);
            proptest::prop_assert!(is_canonical(r));
            let expected = i128::from(d).rem_euclid(i128::from(MERSENNE_P)) as u64;
            proptest::prop_assert_eq!(r, expected);
            // Additive inverse round-trip (guarded against -i64::MIN overflow).
            if d != i64::MIN {
                proptest::prop_assert_eq!(mersenne_add(r, from_i64(-d)), 0);
            }
        }

        #[test]
        fn prop_from_u64_round_trips(x in proptest::num::u64::ANY) {
            let r = from_u64(x);
            proptest::prop_assert!(is_canonical(r));
            proptest::prop_assert_eq!(from_u64(r), r); // idempotent on residues
            proptest::prop_assert_eq!(u128::from(r), u128::from(x) % u128::from(MERSENNE_P));
        }

        #[test]
        fn prop_reduce_matches_reference(x in proptest::num::u128::ANY) {
            proptest::prop_assert_eq!(mersenne_reduce(x), reduce_ref(x));
        }

        #[test]
        fn prop_mul_commutes_and_matches(a in 0u64..MERSENNE_P, b in 0u64..MERSENNE_P) {
            let m = mersenne_mul(a, b);
            proptest::prop_assert_eq!(m, mersenne_mul(b, a));
            proptest::prop_assert_eq!(m, reduce_ref(u128::from(a) * u128::from(b)));
        }

        #[test]
        fn prop_pow_agrees_with_repeated_mul(a in 0u64..MERSENNE_P, e in 0u64..32) {
            let mut expected = 1u64;
            for _ in 0..e {
                expected = mersenne_mul(expected, a);
            }
            proptest::prop_assert_eq!(mersenne_pow(a, e), expected);
        }
    }
}
