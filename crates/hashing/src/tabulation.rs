//! Simple tabulation hashing.
//!
//! Splits a 64-bit key into 8 bytes and XORs together one random 64-bit
//! table entry per byte. Formally 3-independent, but Pătraşcu–Thorup
//! showed it behaves like a fully random function for the load-balancing
//! and min-wise style applications we use it for (the KMV distinct-count
//! cross-check). 2 KiB of tables per function.

use crate::Hasher64;
use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use rand::Rng;

const BYTES: usize = 8;
const TABLE: usize = 256;

/// A simple tabulation hash `u64 → u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationHash {
    tables: Box<[[u64; TABLE]; BYTES]>,
}

impl TabulationHash {
    /// Draws a fresh function: 8 × 256 uniform 64-bit entries.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut tables = Box::new([[0u64; TABLE]; BYTES]);
        for table in tables.iter_mut() {
            for cell in table.iter_mut() {
                *cell = rng.random();
            }
        }
        Self { tables }
    }
}

impl Hasher64 for TabulationHash {
    fn domain(&self) -> u64 {
        u64::MAX
    }

    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` enumerates the 8 bytes of a u64 and `b: u8` indexes a `[u64; 256]` table, so both are in bounds by their types"
    )]
    fn hash(&self, key: u64) -> u64 {
        let mut out = 0u64;
        let bytes = key.to_le_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            out ^= self.tables[i][b as usize];
        }
        out
    }

    fn hash_to_unit(&self, key: u64) -> f64 {
        // u64::MAX as f64 rounds up to 2⁶⁴, which conveniently keeps the
        // result strictly below 1.0.
        self.hash(key) as f64 / (u64::MAX as f64 + 1.0)
    }
}

/// Payload: the 8 × 256 table entries row-major — a fixed 2048-word
/// block, every bit pattern valid (the tables are uniform 64-bit words,
/// so there is nothing semantic to re-validate beyond length).
impl Snapshot for TabulationHash {
    const TAG: u8 = 3;

    fn write_payload(&self, w: &mut Writer<'_>) {
        for table in self.tables.iter() {
            for &cell in table.iter() {
                w.put_u64(cell);
            }
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut tables = Box::new([[0u64; TABLE]; BYTES]);
        for table in tables.iter_mut() {
            for cell in table.iter_mut() {
                *cell = r.get_u64()?;
            }
        }
        Ok(Self { tables })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_per_instance() {
        let h = TabulationHash::new(&mut StdRng::seed_from_u64(1));
        assert_eq!(h.hash(12345), h.hash(12345));
    }

    #[test]
    fn byte_sensitivity() {
        // Changing any single byte of the key must change the hash
        // (XOR of a different table entry) except with tiny probability.
        let h = TabulationHash::new(&mut StdRng::seed_from_u64(2));
        let key = 0x0123_4567_89ab_cdefu64;
        for byte in 0..8 {
            let flipped = key ^ (0xffu64 << (8 * byte));
            assert_ne!(h.hash(key), h.hash(flipped), "byte {byte}");
        }
    }

    #[test]
    fn unit_interval() {
        let h = TabulationHash::new(&mut StdRng::seed_from_u64(3));
        for x in 0..10_000u64 {
            let u = h.hash_to_unit(x * 7919);
            assert!((0.0..1.0).contains(&u), "u={u}");
        }
    }

    #[test]
    fn avalanche_smoke() {
        // Average Hamming distance between h(x) and h(x+1) should be
        // near 32 bits for a decent 64-bit hash.
        let h = TabulationHash::new(&mut StdRng::seed_from_u64(4));
        let mut total = 0u32;
        let n = 2_000u64;
        for x in 0..n {
            total += (h.hash(x) ^ h.hash(x + 1)).count_ones();
        }
        let avg = f64::from(total) / n as f64;
        assert!((24.0..40.0).contains(&avg), "avg flip {avg}");
    }

    #[test]
    fn min_statistic_unbiased() {
        // E[min of k uniform(0,1)] = 1/(k+1); used by KMV. Sanity check
        // the tabulation-induced minimum over many trials.
        let mut acc = 0.0;
        let trials = 300u32;
        let k = 50u64;
        for seed in 0..trials {
            let h = TabulationHash::new(&mut StdRng::seed_from_u64(u64::from(seed)));
            let min = (0..k).map(|x| h.hash_to_unit(x)).fold(1.0f64, f64::min);
            acc += min;
        }
        let avg = acc / f64::from(trials);
        let expected = 1.0 / (k as f64 + 1.0);
        assert!(
            (avg - expected).abs() < expected,
            "avg min {avg} vs expected {expected}"
        );
    }
}
