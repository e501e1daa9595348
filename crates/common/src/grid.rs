//! The exponential threshold grid `(1+ε)^i`.
//!
//! Almost every algorithm in the paper guesses the H-index on a
//! geometric grid: Algorithm 1 keeps a counter per grid level, Algorithm
//! 2 slides a window of levels, Algorithms 5–8 bucket sampled values by
//! level. [`ExpGrid`] centralizes the (surprisingly fiddly) mapping
//! between integer values and grid levels so all of them agree on the
//! arithmetic.
//!
//! Levels are `i = 0, 1, 2, …` with real-valued thresholds
//! `t_i = (1+ε)^i`; an integer value `v` *clears* level `i` iff
//! `v ≥ t_i`, equivalently `v ≥ ceil(t_i)`. Floating-point `powi` is
//! exact enough for every realistic level (values up to 2⁵³), and the
//! integer ceiling is computed with a half-ulp guard so grid decisions
//! are stable and monotone.

/// A geometric grid with base `1 + ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpGrid {
    base: f64,
}

impl ExpGrid {
    /// Creates a grid with base `1 + epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite and strictly positive. (Library
    /// entry points validate via [`crate::Epsilon`] first; this is a
    /// defense-in-depth assert.)
    #[must_use]
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "grid epsilon must be finite and positive"
        );
        Self { base: 1.0 + epsilon }
    }

    /// The grid base `1 + ε`.
    #[must_use]
    pub fn base(self) -> f64 {
        self.base
    }

    /// The real threshold `t_i = (1+ε)^i`.
    #[must_use]
    pub fn threshold(self, level: u32) -> f64 {
        self.base.powi(level as i32)
    }

    /// The smallest integer clearing level `i`: `⌈(1+ε)^i⌉`, with a
    /// guard so that values that are exactly on the grid (up to
    /// half-ulp noise) land on the intended side.
    #[must_use]
    pub fn int_threshold(self, level: u32) -> u64 {
        let t = self.threshold(level);
        // If t is within relative 1e-9 of an integer, treat it as that
        // integer (so 8.000000001, intended as exactly 8, does not ceil
        // to 9); otherwise take the true ceiling.
        let nearest = t.round();
        if (t - nearest).abs() <= 1e-9 * nearest.max(1.0) {
            nearest as u64
        } else {
            t.ceil() as u64
        }
    }

    /// Whether integer `value` clears level `i` (`value ≥ (1+ε)^i`).
    ///
    /// Levels whose real threshold exceeds `u64::MAX` are cleared by
    /// no value — without this guard, the saturating `as u64` cast in
    /// [`Self::int_threshold`] would make `u64::MAX` appear to clear
    /// *every* level, sending level searches into an infinite climb.
    #[must_use]
    pub(crate) fn clears(self, value: u64, level: u32) -> bool {
        let t = self.threshold(level);
        if t > u64::MAX as f64 {
            return false;
        }
        value >= self.int_threshold(level)
    }

    /// The highest level cleared by `value`, i.e.
    /// `⌊log_{1+ε} value⌋` computed robustly, or `None` for `value = 0`.
    #[must_use]
    pub fn level_of(self, value: u64) -> Option<u32> {
        if value == 0 {
            return None;
        }
        // Initial guess from logarithms, then fix up with exact integer
        // comparisons (the guess can be off by one either way).
        let guess = ((value as f64).ln() / self.base.ln()).floor();
        let mut level = if guess < 0.0 { 0 } else { guess as u32 };
        while !self.clears(value, level) {
            level -= 1; // value ≥ 1 always clears level 0, so this terminates
        }
        while self.clears(value, level + 1) {
            level += 1;
        }
        Some(level)
    }
}

/// The grid serializes as its base `1 + ε` (IEEE-754 bits): the base is
/// the entire state, and storing it verbatim — rather than ε — makes the
/// round-trip bit-exact with no float arithmetic on the decode path.
impl crate::snapshot::Snapshot for ExpGrid {
    const TAG: u8 = 12;

    fn write_payload(&self, w: &mut crate::snapshot::Writer<'_>) {
        w.put_f64(self.base);
    }

    fn read_payload(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let base = r.get_f64()?;
        if !(base.is_finite() && base > 1.0) {
            return Err(crate::snapshot::SnapshotError::Invalid(
                "grid base must be finite and greater than 1",
            ));
        }
        Ok(Self { base })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_grow_geometrically() {
        let g = ExpGrid::new(0.5);
        assert_eq!(g.int_threshold(0), 1);
        assert_eq!(g.int_threshold(1), 2); // 1.5 → 2
        assert_eq!(g.int_threshold(2), 3); // 2.25 → 3
        assert_eq!(g.int_threshold(3), 4); // 3.375 → 4
        assert_eq!(g.int_threshold(4), 6); // 5.0625 → 6
    }

    #[test]
    fn exact_powers_are_not_overshot() {
        // With ε = 1 the thresholds are exact powers of two; floating
        // point must not push ceil(2^k) to 2^k + 1.
        let g = ExpGrid::new(1.0);
        for k in 0..60u32 {
            assert_eq!(g.int_threshold(k), 1u64 << k, "k={k}");
        }
    }

    #[test]
    fn level_of_inverts_threshold() {
        for &eps in &[0.05, 0.1, 0.25, 0.5, 1.0] {
            let g = ExpGrid::new(eps);
            for level in 0..40u32 {
                let t = g.int_threshold(level);
                let found = g.level_of(t).unwrap();
                // t clears `level` by construction; it may clear higher
                // levels when consecutive integer thresholds collide.
                assert!(found >= level, "eps={eps} level={level} t={t} found={found}");
                assert!(g.clears(t, found));
                assert!(!g.clears(t, found + 1));
            }
        }
    }

    #[test]
    fn level_of_zero_is_none() {
        assert_eq!(ExpGrid::new(0.1).level_of(0), None);
    }

    #[test]
    fn level_of_one_is_zero() {
        for &eps in &[0.01, 0.3, 0.9] {
            assert_eq!(ExpGrid::new(eps).level_of(1), Some(0), "eps={eps}");
        }
    }

    #[test]
    fn clears_is_monotone_in_value_and_antitone_in_level() {
        let g = ExpGrid::new(0.2);
        for v in 1..200u64 {
            for level in 0..30u32 {
                if g.clears(v, level + 1) {
                    assert!(g.clears(v, level), "v={v} level={level}");
                }
                if g.clears(v, level) {
                    assert!(g.clears(v + 1, level), "v={v} level={level}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_epsilon_panics() {
        let _ = ExpGrid::new(0.0);
    }

    #[test]
    fn u64_max_terminates_and_is_consistent() {
        // Regression: thresholds beyond u64::MAX saturate in the
        // integer cast; level_of(u64::MAX) must still terminate and
        // satisfy the defining property.
        for &eps in &[0.03, 0.1, 0.5, 0.99] {
            let g = ExpGrid::new(eps);
            for v in [u64::MAX, u64::MAX - 1, 1u64 << 63] {
                let level = g.level_of(v).unwrap();
                assert!(g.clears(v, level), "eps={eps} v={v}");
                assert!(!g.clears(v, level + 1), "eps={eps} v={v}");
            }
        }
    }

    #[test]
    fn astronomical_levels_cleared_by_nothing() {
        let g = ExpGrid::new(0.1);
        // 1.1^2000 ≫ u64::MAX: no value clears it.
        assert!(!g.clears(u64::MAX, 2000));
        assert!(!g.clears(u64::MAX, 10_000));
    }

    proptest::proptest! {
        #[test]
        fn prop_level_of_definition(v in 1u64..1_000_000, eps_milli in 10u32..1000) {
            let g = ExpGrid::new(f64::from(eps_milli) / 1000.0);
            let level = g.level_of(v).unwrap();
            proptest::prop_assert!(g.clears(v, level));
            proptest::prop_assert!(!g.clears(v, level + 1));
        }

        #[test]
        fn prop_int_thresholds_nondecreasing(eps_milli in 10u32..2000, level in 0u32..60) {
            let g = ExpGrid::new(f64::from(eps_milli) / 1000.0);
            proptest::prop_assert!(g.int_threshold(level) <= g.int_threshold(level + 1));
        }
    }
}
