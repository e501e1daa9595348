//! s-sparse recovery by hashing into rows of 1-sparse cells.
//!
//! Structure: `rows × 2s` grid of [`OneSparseRecovery`] cells; row `r`
//! routes index `i` to cell `h_r(i)`. If the sketched vector has at most
//! `s` non-zero coordinates, each coordinate is isolated (alone in its
//! cell) in at least one row with probability `≥ 1 − 2⁻rows` (each row
//! isolates it with probability `≥ 1/2` by pairwise independence and
//! Markov).
//!
//! The decode collects every cell that recovers as 1-sparse, merges the
//! candidates, and then **verifies the complete decode against a
//! whole-vector fingerprint** `F = Σ δ·rⁱ` maintained alongside the
//! grid. This catches both missed coordinates and spurious cell
//! decodes, so a successful [`SparseRecovery::decode`] is correct whp
//! regardless of the input's actual sparsity — exactly the behaviour
//! the ℓ₀-sampler's level search needs.

use crate::one_sparse::{OneSparseRecovery, Recovery};
use hindex_common::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use hindex_common::SpaceUsage;
use hindex_hashing::field::MERSENNE_P;
use hindex_hashing::{from_i64, mersenne_mul, Hasher64, PairwiseHash, PowerLadder};
use rand::Rng;
use std::collections::HashSet;
use std::sync::Arc;

/// Linear sketch recovering vectors with up to `s` non-zero
/// coordinates.
///
/// The cell grid is materialised lazily on the first update: all
/// randomness (hashes, fingerprint point) is drawn eagerly in
/// [`SparseRecovery::new`], so clones taken before or after the grid
/// exists stay merge-compatible, but an untouched sketch costs only a
/// few words to hold, clone, or merge. The ℓ₀-sampler allocates dozens
/// of geometric levels of which a stream touches a handful; laziness
/// keeps the resident footprint proportional to the touched levels.
///
/// ```
/// use hindex_sketch::SparseRecovery;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut s = SparseRecovery::new(4, 6, &mut StdRng::seed_from_u64(0));
/// s.update(10, 3);
/// s.update(99, 7);
/// assert_eq!(s.decode(), Some(vec![(10, 3), (99, 7)]));
/// ```
#[derive(Debug, Clone)]
pub struct SparseRecovery {
    s: usize,
    cols: usize,
    hashes: Vec<PairwiseHash>,
    /// `cells[row * cols + col]`; empty until the first update
    /// (an empty grid sketches the zero vector).
    cells: Vec<OneSparseRecovery>,
    /// Whole-vector fingerprint for decode verification.
    checksum: OneSparseRecovery,
    /// Windowed power table for the fingerprint point — pure derived
    /// scratch (recomputable from `checksum.point()`), shared across
    /// clones and, via [`SparseRecovery::with_shared_ladder`], across
    /// all levels of an ℓ₀-sampler. Never part of the sketch state:
    /// merge compatibility and decode results are independent of it.
    ladder: Arc<PowerLadder>,
}

impl SparseRecovery {
    /// Creates a sketch for sparsity `s` with failure probability
    /// roughly `2^{-rows}` per decode.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0` or `rows == 0`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(s: usize, rows: usize, rng: &mut R) -> Self {
        let point = rng.random_range(1..MERSENNE_P);
        Self::with_shared_ladder(s, rows, Arc::new(PowerLadder::new(point)), rng)
    }

    /// Creates a sketch whose fingerprint point (and power ladder) is
    /// supplied by the caller instead of drawn from `rng`; only the row
    /// hashes are drawn. This is how [`crate::L0Sampler`] shares one
    /// 16 KiB ladder across all of its geometric levels instead of
    /// paying for one per level.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`, `rows == 0`, or the ladder base is outside
    /// `[1, p)`.
    #[must_use]
    pub fn with_shared_ladder<R: Rng + ?Sized>(
        s: usize,
        rows: usize,
        ladder: Arc<PowerLadder>,
        rng: &mut R,
    ) -> Self {
        assert!(s >= 1, "sparsity must be at least 1");
        assert!(rows >= 1, "need at least one row");
        let cols = 2 * s;
        let hashes = (0..rows).map(|_| PairwiseHash::new(rng)).collect();
        let checksum = OneSparseRecovery::with_point(ladder.base());
        Self {
            s,
            cols,
            hashes,
            cells: Vec::new(),
            checksum,
            ladder,
        }
    }

    /// Materialises the zero grid (all randomness was drawn in `new`,
    /// so this is deterministic and clone/merge-compatible).
    fn ensure_cells(&mut self) {
        if self.cells.is_empty() {
            let point = self.checksum.point();
            self.cells =
                vec![OneSparseRecovery::with_point(point); self.hashes.len() * self.cols];
        }
    }

    /// Applies the update `V[index] += delta`.
    pub fn update(&mut self, index: u64, delta: i64) {
        // One ladder exponentiation (≤ 7 multiplies), shared across
        // every touched cell and the checksum.
        let r_pow = self.ladder.pow(index);
        self.update_with_power(index, delta, r_pow);
        #[cfg(feature = "debug_invariants")]
        self.assert_grid_consistent();
    }

    /// Like [`Self::update`] but with `rⁱ` supplied by the caller, so a
    /// structure that fans one update out to many same-point sketches
    /// (the ℓ₀-sampler's level stack) pays for the exponentiation once.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the field domain; debug builds also
    /// verify `r_pow` against the fingerprint point.
    pub fn update_with_power(&mut self, index: u64, delta: i64, r_pow: u64) {
        // The fingerprint increment (δ mod p)·rⁱ is the same for the
        // checksum and every touched cell: one multiply serves all of
        // them, and each cell update is then three additions.
        self.update_with_term(index, delta, mersenne_mul(from_i64(delta), r_pow));
    }

    /// Like [`Self::update_with_power`] but with the shared fingerprint
    /// increment `term = (δ mod p)·rⁱ mod p` supplied, so the
    /// ℓ₀-sampler's level stack pays for it once across all levels.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the field domain; debug builds also
    /// verify `term` against the fingerprint point.
    pub(crate) fn update_with_term(&mut self, index: u64, delta: i64, term: u64) {
        self.ensure_cells();
        self.checksum.update_with_term(index, delta, term);
        for (row, h) in self.hashes.iter().enumerate() {
            let col = h.hash_to_range(index, self.cols as u64) as usize;
            self.cells[row * self.cols + col].update_with_term(index, delta, term);
        }
    }

    /// Applies a batch of updates; state-identical to applying them in
    /// a loop (field addition is exact and commutative), but the row
    /// hashes are evaluated with the batched kernel and the fingerprint
    /// powers come from the shared ladder.
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        if updates.is_empty() {
            return;
        }
        let indices: Vec<u64> = updates.iter().map(|&(i, _)| i).collect();
        let deltas: Vec<i64> = updates.iter().map(|&(_, d)| d).collect();
        let terms: Vec<u64> = updates
            .iter()
            .map(|&(i, d)| mersenne_mul(from_i64(d), self.ladder.pow(i)))
            .collect();
        let mut cols = Vec::new();
        self.update_batch_with_terms(&indices, &deltas, &terms, &mut cols);
    }

    /// The batch kernel behind [`Self::update_batch`]: parallel slices
    /// of indices, deltas, and caller-computed fingerprint increments
    /// (`terms[k] = (δₖ mod p)·r^{iₖ} mod p`), plus a reusable column
    /// scratch buffer. Exposed so the ℓ₀-sampler can drive all its
    /// levels from one exponentiation *and one multiply* per index.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ or an index is outside the
    /// field domain.
    pub(crate) fn update_batch_with_terms(
        &mut self,
        indices: &[u64],
        deltas: &[i64],
        terms: &[u64],
        col_scratch: &mut Vec<u64>,
    ) {
        assert_eq!(indices.len(), deltas.len(), "index/delta length mismatch");
        assert_eq!(indices.len(), terms.len(), "index/term length mismatch");
        if indices.is_empty() {
            return;
        }
        self.ensure_cells();
        // Tile, then transpose: per tile, the batched hash kernel
        // fills a flat rows×tile column buffer (all L1-resident), and
        // a single pass over the tile's updates keeps each
        // `(index, delta, term)` in registers while it fans out to the
        // checksum and one cell per row — the same access pattern as
        // the scalar path, minus the per-key hash calls. Only
        // commutative exact additions are reordered: states stay
        // bit-identical to the scalar path.
        const TILE: usize = 256;
        let rows = self.hashes.len();
        let mut start = 0;
        while start < indices.len() {
            let end = (start + TILE).min(indices.len());
            let tile = end - start;
            let (idx, del, trm) =
                (&indices[start..end], &deltas[start..end], &terms[start..end]);
            col_scratch.clear();
            col_scratch.resize(rows * tile, 0);
            for (row, h) in self.hashes.iter().enumerate() {
                h.hash_to_range_batch_into(
                    idx,
                    self.cols as u64,
                    &mut col_scratch[row * tile..(row + 1) * tile],
                );
            }
            for (k, ((&i, &d), &t)) in idx.iter().zip(del).zip(trm).enumerate() {
                self.checksum.update_with_term(i, d, t);
                for row in 0..rows {
                    let col = col_scratch[row * tile + k] as usize;
                    self.cells[row * self.cols + col].update_with_term(i, d, t);
                }
            }
            start = end;
        }
        #[cfg(feature = "debug_invariants")]
        self.assert_grid_consistent();
    }

    /// The shared power ladder for this sketch's fingerprint point.
    #[must_use]
    pub fn ladder(&self) -> &Arc<PowerLadder> {
        &self.ladder
    }

    /// Swaps this sketch's ladder for a shared one with the same base.
    /// Returns `false` (leaving the sketch untouched) on a base
    /// mismatch. Crate-internal: this is how a restored ℓ₀-sampler
    /// re-establishes the one-ladder-per-stack sharing that
    /// [`Self::with_shared_ladder`] set up originally.
    pub(crate) fn share_ladder(&mut self, ladder: &Arc<PowerLadder>) -> bool {
        if ladder.same_base(&self.ladder) {
            self.ladder = Arc::clone(ladder);
            true
        } else {
            false
        }
    }

    /// Merges another sketch with identical configuration and
    /// randomness.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ (same-randomness violations surface
    /// as fingerprint-point mismatches inside the cell merge).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.s, other.s, "sparsity mismatch");
        assert_eq!(self.hashes.len(), other.hashes.len(), "row mismatch");
        // An unmaterialised side sketches the zero vector: adding it is
        // a no-op, and adding *into* it just needs the grid first.
        if !other.cells.is_empty() {
            self.ensure_cells();
            for (a, b) in self.cells.iter_mut().zip(&other.cells) {
                a.merge(b);
            }
        }
        self.checksum.merge(&other.checksum);
        #[cfg(feature = "debug_invariants")]
        self.assert_grid_consistent();
    }

    /// Attempts to recover the full support of the sketched vector by
    /// iterative peeling.
    ///
    /// Each round scans the grid for cells that decode as 1-sparse,
    /// subtracts the recovered coordinates from the working copy (which
    /// can turn 2-item cells into decodable singletons), and repeats
    /// until no progress; a residual that is itself 1-sparse is
    /// recovered straight from the whole-vector checksum. The decode
    /// succeeds iff the residual checksum is exactly zero, so a returned
    /// support is correct whp regardless of the input's density; `None`
    /// means the vector was too dense to peel (or a `≤ 2^{-Θ(rows)}`
    /// failure on a sparse input).
    ///
    /// Returned pairs are sorted by index with exact values.
    ///
    /// Uses a one-shot scratch; the ℓ₀-sampler's level search instead
    /// holds a `DecodeScratch` and calls `decode_with` to keep its hot
    /// loop allocation-free.
    #[must_use]
    pub fn decode(&self) -> Option<Vec<(u64, i64)>> {
        let mut scratch = DecodeScratch::default();
        self.decode_with(&mut scratch).map(<[(u64, i64)]>::to_vec)
    }

    /// [`Self::decode`] into caller-owned scratch: the working copy of
    /// the cell grid, the per-round candidate list, the seen-index set,
    /// and the result buffer all live in `scratch` and are reused
    /// across calls, so a warm scratch makes decoding allocation-free.
    /// The returned slice (sorted by index, exact values) borrows from
    /// `scratch` and is valid until its next use.
    #[must_use]
    pub(crate) fn decode_with<'a>(&self, scratch: &'a mut DecodeScratch) -> Option<&'a [(u64, i64)]> {
        scratch.found.clear();
        if self.cells.is_empty() {
            // Never updated (laziness invariant): the zero vector.
            debug_assert!(matches!(self.checksum.decode(), Recovery::Zero));
            return Some(&scratch.found);
        }
        let cells = &mut scratch.cells;
        cells.clear();
        cells.extend_from_slice(&self.cells); // memcpy: cells are Copy
        let mut checksum = self.checksum;
        let found = &mut scratch.found;
        let seen = &mut scratch.seen;
        seen.clear();
        // Peeling can legitimately recover somewhat more than s items;
        // cap the work so dense inputs terminate quickly.
        let cap = 2 * self.s + 2;
        loop {
            let newly = &mut scratch.newly;
            newly.clear();
            for cell in cells.iter() {
                if let Recovery::One { index, value } = cell.decode_with_ladder(&self.ladder) {
                    // `seen` holds every index in `found` or `newly`,
                    // so the duplicate check is O(1) instead of the old
                    // O(|found| + |newly|) scan per candidate.
                    if seen.insert(index) {
                        newly.push((index, value));
                    }
                }
            }
            if newly.is_empty() {
                // Last resort: a 1-sparse residual is readable from the
                // checksum itself.
                if let Recovery::One { index, value } = checksum.decode_with_ladder(&self.ladder) {
                    if seen.insert(index) {
                        newly.push((index, value));
                    }
                }
            }
            if newly.is_empty() || found.len() + newly.len() > cap {
                break;
            }
            for &(index, value) in newly.iter() {
                let r_pow = self.ladder.pow(index);
                checksum.update_with_power(index, -value, r_pow);
                for (row, h) in self.hashes.iter().enumerate() {
                    let col = h.hash_to_range(index, self.cols as u64) as usize;
                    cells[row * self.cols + col].update_with_power(index, -value, r_pow);
                }
                found.push((index, value));
            }
        }
        // Verify: the residual checksum must be exactly zero, which
        // catches both missed coordinates and spurious cell decodes.
        match checksum.decode_with_ladder(&self.ladder) {
            Recovery::Zero => {
                found.sort_unstable_by_key(|&(i, _)| i);
                Some(found)
            }
            _ => None,
        }
    }
}

/// Payload: sparsity and row count, the row hashes and the checksum
/// cell as nested frames, then the **non-zero cells only** as
/// `(index, ℓ, z, f)` records in ascending index order (the point is
/// shared with the checksum). Zero cells and lazy never-materialised
/// cells have identical state `(0, 0, 0)` — laziness is not state —
/// so the encoding (and with it `frame_digest`) is
/// canonical whether or not the grid ever materialised, and a sketch
/// that saw a handful of updates costs bytes proportional to its
/// support, not to the `rows × 2s` capacity. Decode rebuilds a
/// materialised grid when any cell is non-zero and stays lazy
/// otherwise. The ladder is derived scratch and is rebuilt from the
/// checksum point.
impl Snapshot for SparseRecovery {
    const TAG: u8 = 6;

    fn write_payload(&self, w: &mut Writer<'_>) {
        w.put_usize(self.s);
        w.put_usize(self.hashes.len());
        for h in &self.hashes {
            w.put_nested(h);
        }
        w.put_nested(&self.checksum);
        let nonzero: Vec<(usize, (i128, i128, u64))> = self
            .cells
            .iter()
            .enumerate()
            .filter_map(|(k, cell)| {
                let (ell, z, f, _) = cell.raw_parts();
                (ell != 0 || z != 0 || f != 0).then_some((k, (ell, z, f)))
            })
            .collect();
        w.put_usize(nonzero.len());
        for (k, (ell, z, f)) in nonzero {
            w.put_usize(k);
            w.put_i128(ell);
            w.put_i128(z);
            w.put_u64(f);
        }
    }

    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let s = r.get_usize()?;
        let rows = r.get_usize()?;
        if s == 0 {
            return Err(SnapshotError::Invalid("sparsity must be at least 1"));
        }
        if rows == 0 {
            return Err(SnapshotError::Invalid("need at least one row"));
        }
        // Each row hash is a nested frame of at least FRAME_OVERHEAD
        // bytes; bound the hash allocation by the payload size.
        if rows > r.remaining() / hindex_common::snapshot::FRAME_OVERHEAD {
            return Err(SnapshotError::Invalid("row count larger than payload"));
        }
        let cols = s
            .checked_mul(2)
            .ok_or(SnapshotError::Invalid("sparsity overflows the grid width"))?;
        let total = rows
            .checked_mul(cols)
            .ok_or(SnapshotError::Invalid("grid dimensions overflow"))?;
        // With sparse cell storage the grid capacity is no longer
        // bounded by the payload length, so a hostile header could
        // claim an enormous `s`. Cap the materialised grid outright:
        // real sketches use `rows = O(log 1/δ)` and `cols = 2s` with
        // small `s`, orders of magnitude below this format limit.
        const MAX_GRID_CELLS: usize = 1 << 20;
        if total > MAX_GRID_CELLS {
            return Err(SnapshotError::Invalid("grid capacity exceeds the format limit"));
        }
        let mut hashes = Vec::with_capacity(rows);
        for _ in 0..rows {
            hashes.push(r.get_nested::<PairwiseHash>()?);
        }
        let checksum = r.get_nested::<OneSparseRecovery>()?;
        let point = checksum.point();
        // Each stored cell record is 8 + 16 + 16 + 8 bytes; `get_count`
        // rejects hostile counts before this allocates.
        let stored = r.get_count(48)?;
        if stored > total {
            return Err(SnapshotError::Invalid("more cells than the grid holds"));
        }
        let mut cells = Vec::new();
        if stored > 0 {
            // The in-memory grid (like the digest) treats a lazy grid
            // and an all-zero grid as the same state, so materialise
            // only when there is something to place. `total` bytes of
            // zero cells is bounded by the sketch's own design capacity,
            // already vetted above via the nested-frame row bound.
            cells = vec![OneSparseRecovery::with_point(point); total];
            let mut prev: Option<usize> = None;
            for _ in 0..stored {
                let k = r.get_usize()?;
                if k >= total {
                    return Err(SnapshotError::Invalid("cell index outside the grid"));
                }
                if prev.is_some_and(|p| p >= k) {
                    return Err(SnapshotError::Invalid(
                        "cell indices must be strictly increasing",
                    ));
                }
                prev = Some(k);
                let ell = r.get_i128()?;
                let z = r.get_i128()?;
                let f = r.get_u64()?;
                if ell == 0 && z == 0 && f == 0 {
                    return Err(SnapshotError::Invalid("zero cell stored explicitly"));
                }
                cells[k] = OneSparseRecovery::from_raw_parts(ell, z, f, point)?;
            }
        }
        Ok(Self {
            s,
            cols,
            hashes,
            cells,
            checksum,
            ladder: Arc::new(PowerLadder::new(point)),
        })
    }
}

#[cfg(feature = "debug_invariants")]
impl SparseRecovery {
    /// Structural invariants of the grid: the lazy cell vector is
    /// either empty or exactly `rows × cols`, and every cell shares the
    /// checksum's fingerprint point, which in turn is the ladder base
    /// (merge compatibility and decode verification both hinge on
    /// this). Only compiled under `debug_invariants`.
    fn assert_grid_consistent(&self) {
        assert!(
            self.cells.is_empty() || self.cells.len() == self.hashes.len() * self.cols,
            "cell grid is {} cells, want 0 or {}",
            self.cells.len(),
            self.hashes.len() * self.cols
        );
        assert_eq!(
            self.checksum.point(),
            self.ladder.base(),
            "checksum point diverged from the shared ladder base"
        );
        for cell in &self.cells {
            assert_eq!(
                cell.point(),
                self.checksum.point(),
                "grid cell fingerprint point diverged from the checksum"
            );
        }
    }
}

/// Reusable working memory for [`SparseRecovery::decode_with`].
///
/// Holds the peeling loop's working grid, candidate list, seen-index
/// set, and result buffer. After the first decode warms the buffers,
/// subsequent decodes of same-or-smaller sketches allocate nothing.
/// Purely scratch: carries no sketch state between calls.
#[derive(Debug, Default, Clone)]
pub(crate) struct DecodeScratch {
    cells: Vec<OneSparseRecovery>,
    newly: Vec<(u64, i64)>,
    seen: HashSet<u64>,
    found: Vec<(u64, i64)>,
}

impl SpaceUsage for SparseRecovery {
    fn space_words(&self) -> usize {
        // Report the full-grid capacity whether or not the lazy grid is
        // materialised yet: space bounds quote the worst case.
        let cell_words = self.hashes.len() * self.cols * self.checksum.space_words();
        // Two words per pairwise hash (a, b) plus the checksum cell.
        // The power ladder is deliberately NOT counted here — it is
        // derived scratch (see `scratch_words`).
        cell_words + 2 * self.hashes.len() + self.checksum.space_words()
    }

    fn scratch_words(&self) -> usize {
        // A sketch holding the only reference owns its ladder; clones
        // and samplers sharing one ladder report it at the sharing
        // level instead (see `L0Sampler::scratch_words`).
        self.ladder.table_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sketch(s: usize, seed: u64) -> SparseRecovery {
        SparseRecovery::new(s, 6, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn peeling_recovers_despite_total_isolation_failure() {
        // Regression: with this seed, index 29338 collides with some
        // other item in every single row; only peeling (or the checksum
        // residual) can recover it.
        let support: Vec<(u64, i64)> = vec![
            (0, 1), (29338, 1), (114051, 1), (244705, 507),
            (278122, 1), (362791, 1), (496500, 1),
        ];
        let mut s = SparseRecovery::new(10, 8, &mut StdRng::seed_from_u64(15496699175210582792));
        for &(i, v) in &support {
            s.update(i, v);
        }
        assert_eq!(s.decode(), Some(support));
    }

    #[test]
    fn empty_decodes_empty() {
        assert_eq!(sketch(4, 0).decode(), Some(vec![]));
    }

    #[test]
    fn recovers_exactly_s_items() {
        let mut s = sketch(5, 1);
        let items = [(10u64, 3i64), (20, 1), (30, 4), (40, 1), (50, 5)];
        for &(i, v) in &items {
            s.update(i, v);
        }
        assert_eq!(s.decode(), Some(items.to_vec()));
    }

    #[test]
    fn recovers_after_cancellations() {
        let mut s = sketch(3, 2);
        s.update(1, 5);
        s.update(2, 5);
        s.update(3, 5);
        s.update(4, 5);
        s.update(5, 5); // five non-zeros: too dense for s = 3
        s.update(1, -5);
        s.update(2, -5); // back down to three
        assert_eq!(s.decode(), Some(vec![(3, 5), (4, 5), (5, 5)]));
    }

    #[test]
    fn too_dense_returns_none() {
        let mut s = sketch(2, 3);
        for i in 0..100u64 {
            s.update(i, 1);
        }
        assert_eq!(s.decode(), None);
    }

    #[test]
    fn split_values_accumulate() {
        let mut s = sketch(2, 4);
        for _ in 0..10 {
            s.update(77, 2);
            s.update(99, 3);
        }
        assert_eq!(s.decode(), Some(vec![(77, 20), (99, 30)]));
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let mut rng = StdRng::seed_from_u64(5);
        let a0 = SparseRecovery::new(4, 6, &mut rng);
        let mut a = a0.clone();
        let mut b = a0.clone();
        a.update(1, 1);
        a.update(2, 2);
        b.update(2, 3);
        b.update(9, 9);
        a.merge(&b);
        assert_eq!(a.decode(), Some(vec![(1, 1), (2, 5), (9, 9)]));
    }

    #[test]
    fn decode_success_rate_for_sparse_inputs() {
        // ≤ s-sparse inputs should decode with overwhelming probability
        // across seeds.
        let mut ok = 0;
        let trials = 200;
        for seed in 0..trials {
            let mut s = sketch(8, seed);
            for k in 0..8u64 {
                s.update(k * 1009 + 17, (k + 1) as i64);
            }
            if s.decode().is_some() {
                ok += 1;
            }
        }
        assert!(ok >= trials - 2, "only {ok}/{trials} decodes succeeded");
    }

    #[test]
    fn dense_inputs_never_misdecode() {
        // When decode succeeds it must be *correct*; for vectors denser
        // than s it must return None (fingerprint verification).
        for seed in 0..100 {
            let mut s = sketch(3, seed);
            for i in 0..50u64 {
                s.update(i * 31 + 1, 1);
            }
            assert_eq!(s.decode(), None, "seed {seed}");
        }
    }

    #[test]
    fn space_scales_with_s_and_rows() {
        use hindex_common::SpaceUsage;
        let small = SparseRecovery::new(2, 2, &mut StdRng::seed_from_u64(0));
        let big = SparseRecovery::new(8, 6, &mut StdRng::seed_from_u64(0));
        assert!(big.space_words() > small.space_words());
        // 2·s·rows cells of 6 words each, plus hashes and checksum.
        assert!(big.space_words() >= 8 * 2 * 6 * 6);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_sparse_decode_correct(
            seed in proptest::num::u64::ANY,
            support in proptest::collection::btree_map(0u64..1_000_000, 1i64..1000, 0..10),
        ) {
            let mut s = SparseRecovery::new(10, 8, &mut StdRng::seed_from_u64(seed));
            for (&i, &v) in &support {
                s.update(i, v);
            }
            if let Some(decoded) = s.decode() {
                let expected: Vec<(u64, i64)> = support.into_iter().collect();
                proptest::prop_assert_eq!(decoded, expected);
            } else {
                // Failure is allowed only with tiny probability; flag a
                // deterministic failure pattern rather than flaking.
                proptest::prop_assert!(false, "decode failed for ≤ 10-sparse input");
            }
        }

        #[test]
        fn prop_decode_never_wrong_even_when_dense(
            seed in 0u64..64,
            n in 11u64..200,
        ) {
            let mut s = SparseRecovery::new(4, 6, &mut StdRng::seed_from_u64(seed));
            for i in 0..n {
                s.update(i, 1);
            }
            // Denser than s: decode must refuse (fingerprint catches it).
            proptest::prop_assert_eq!(s.decode(), None);
        }
    }
}
