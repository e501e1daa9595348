//! Windowed power ladders: precomputed exponentiation for a fixed base.
//!
//! Every fingerprint update in the sketch layer needs `rⁱ mod p` for a
//! base `r` that is **fixed at construction time** and an index `i`
//! that varies per update. Square-and-multiply
//! ([`crate::mersenne_pow`]) recomputes the squaring chain of `r` from
//! scratch on every call — ~61 squarings plus ~30 conditional
//! multiplies for 61-bit exponents. A [`PowerLadder`] spends those
//! multiplies **once**, building tables of
//!
//! ```text
//! T[w][d] = r^(d · 2^(8w))    for windows w = 0..8, digits d = 0..256
//! ```
//!
//! after which any 64-bit exponent costs at most 8 table lookups and 7
//! field multiplies (one per non-zero base-256 digit): a ~10× reduction
//! in hot-path multiplies. The table is 8 × 256 words (16 KiB) —
//! derived entirely from `r`, so it is *scratch*, not sketch state: two
//! sketches with the same `r` are merge-compatible regardless of who
//! holds a ladder, and [`PowerLadder::pow`] returns **bit-identical**
//! results to [`crate::mersenne_pow`] (both produce the canonical
//! residue in `[0, p)`).

use crate::field::{from_u64, mersenne_mul, MERSENNE_P};
use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};

/// Bits per window digit.
const WINDOW_BITS: usize = 8;
/// Digits per window (2⁸).
const WINDOW_SIZE: usize = 1 << WINDOW_BITS;
/// Windows needed to cover a full 64-bit exponent.
const WINDOWS: usize = 64 / WINDOW_BITS;

/// Precomputed windowed exponentiation table for a fixed base over
/// 𝔽_(2⁶¹−1).
///
/// ```
/// use hindex_hashing::{mersenne_pow, PowerLadder};
///
/// let ladder = PowerLadder::new(123_456_789);
/// for exp in [0u64, 1, 61, 1 << 40, u64::MAX] {
///     assert_eq!(ladder.pow(exp), mersenne_pow(123_456_789, exp));
/// }
/// ```
#[derive(Clone)]
pub struct PowerLadder {
    base: u64,
    /// `table[w * 256 + d] = base^(d << (8w))`, flattened row-major.
    table: Box<[u64]>,
}

impl std::fmt::Debug for PowerLadder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The 2048-entry table is pure derived data; printing it would
        // drown every sketch's Debug output.
        f.debug_struct("PowerLadder")
            .field("base", &self.base)
            .field("windows", &WINDOWS)
            .finish()
    }
}

impl PowerLadder {
    /// Builds the ladder for `base` (reduced modulo `p` first).
    ///
    /// Costs `8 × 255` field multiplies once; every subsequent
    /// [`PowerLadder::pow`] costs at most 7.
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "`w < WINDOWS` and `1 ≤ d < WINDOW_SIZE`, so every row and cell lies inside the `WINDOWS × WINDOW_SIZE` table"
    )]
    pub fn new(base: u64) -> Self {
        let base = from_u64(base);
        let mut table = vec![0u64; WINDOWS * WINDOW_SIZE].into_boxed_slice();
        let mut window_base = base; // base^(2^(8w)) for the current w
        for w in 0..WINDOWS {
            let row = &mut table[w * WINDOW_SIZE..(w + 1) * WINDOW_SIZE];
            row[0] = 1;
            for d in 1..WINDOW_SIZE {
                row[d] = mersenne_mul(row[d - 1], window_base);
            }
            // row[255] * window_base = window_base^256, the next row's base.
            window_base = mersenne_mul(row[WINDOW_SIZE - 1], window_base);
        }
        Self { base, table }
    }

    /// The (reduced) base this ladder exponentiates.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Computes `base^exp mod p`, bit-identical to
    /// [`crate::mersenne_pow`]`(base, exp)`.
    #[inline]
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing,
        reason = "a u64 exponent has at most WINDOWS 8-bit digits, so `row + digit` stays below `WINDOWS × WINDOW_SIZE`"
    )]
    pub fn pow(&self, exp: u64) -> u64 {
        let mut acc = self.table[(exp & 0xFF) as usize];
        let mut rest = exp >> WINDOW_BITS;
        let mut row = WINDOW_SIZE;
        while rest != 0 {
            let digit = (rest & 0xFF) as usize;
            if digit != 0 {
                acc = mersenne_mul(acc, self.table[row + digit]);
            }
            rest >>= WINDOW_BITS;
            row += WINDOW_SIZE;
        }
        #[cfg(feature = "debug_invariants")]
        {
            assert_eq!(
                acc,
                crate::field::mersenne_pow(self.base, exp),
                "ladder diverged from square-and-multiply: base={} exp={exp}",
                self.base
            );
        }
        acc
    }

    /// Whether another ladder exponentiates the same base (the tables
    /// are then identical by construction).
    #[must_use]
    pub fn same_base(&self, other: &Self) -> bool {
        self.base == other.base
    }

    /// Words of table storage this ladder holds — derived scratch,
    /// reported separately from the paper's random-words space bound
    /// (see `docs/ALGORITHMS.md`, "Space accounting for derived
    /// scratch").
    #[must_use]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a table length is far below usize::MAX"
    )]
    pub fn table_words(&self) -> usize {
        self.table.len() + 1 // table entries + the stored base
    }
}

/// Payload: the base alone. The 2048-entry window table is *derived
/// scratch* — recomputed deterministically from the base on decode —
/// so a ladder snapshot is 8 bytes, not 16 KiB, and the restored
/// ladder's table is bit-identical by construction.
impl Snapshot for PowerLadder {
    const TAG: u8 = 4;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_u64(self.base);
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let base = r.get_u64()?;
        if base >= MERSENNE_P {
            return Err(SnapshotError::Invalid("ladder base outside [0, p)"));
        }
        Ok(Self::new(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{mersenne_pow, MERSENNE_P};

    #[test]
    fn matches_mersenne_pow_on_edges() {
        for base in [1u64, 2, 3, 65_537, MERSENNE_P - 2, MERSENNE_P - 1] {
            let ladder = PowerLadder::new(base);
            for exp in [
                0u64,
                1,
                2,
                61,
                255,
                256,
                257,
                (1 << 16) - 1,
                1 << 32,
                MERSENNE_P - 1,
                u64::MAX,
            ] {
                assert_eq!(
                    ladder.pow(exp),
                    mersenne_pow(base, exp),
                    "base={base} exp={exp}"
                );
            }
        }
    }

    #[test]
    fn unreduced_base_is_reduced_first() {
        // mersenne_pow reduces its base; the ladder must agree.
        let ladder = PowerLadder::new(MERSENNE_P + 5);
        assert_eq!(ladder.base(), 5);
        assert_eq!(ladder.pow(10), mersenne_pow(5, 10));
    }

    #[test]
    fn fermat_little_theorem() {
        let ladder = PowerLadder::new(987_654_321);
        assert_eq!(ladder.pow(MERSENNE_P - 1), 1);
    }

    #[test]
    fn table_words_counts_full_table() {
        let ladder = PowerLadder::new(7);
        assert_eq!(ladder.table_words(), 8 * 256 + 1);
    }

    proptest::proptest! {
        #[test]
        fn prop_pow_matches_square_and_multiply(
            base in 0u64..MERSENNE_P,
            exp in proptest::num::u64::ANY,
        ) {
            let ladder = PowerLadder::new(base);
            proptest::prop_assert_eq!(ladder.pow(exp), mersenne_pow(base, exp));
        }

        #[test]
        fn prop_pow_is_homomorphic(
            base in 1u64..MERSENNE_P,
            a in 0u64..(1 << 60),
            b in 0u64..(1 << 60),
        ) {
            // r^a · r^b = r^(a+b): the ladder respects the group law.
            let ladder = PowerLadder::new(base);
            proptest::prop_assert_eq!(
                mersenne_mul(ladder.pow(a), ladder.pow(b)),
                ladder.pow(a + b)
            );
        }
    }
}
