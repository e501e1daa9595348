//! Validated parameter newtypes.
//!
//! Every algorithm in the paper is parameterized by an accuracy `ε` and
//! most by a failure probability `δ`, both constrained to `(0, 1)`.
//! Constructing them through [`Epsilon`] and [`Delta`] moves that
//! validation to the edge of the API, so the algorithms themselves never
//! have to re-check.

use crate::error::{Error, Result};

/// Accuracy parameter `ε ∈ (0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Validates and wraps an accuracy parameter.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless `0 < value < 1` and
    /// `value` is finite.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && value > 0.0 && value < 1.0 {
            Ok(Self(value))
        } else {
            Err(Error::invalid(
                "epsilon",
                format!("must lie in (0, 1), got {value}"),
            ))
        }
    }

    /// The raw value.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// `1 + ε`, the base of the paper's exponential threshold grids.
    #[must_use]
    pub fn base(self) -> f64 {
        1.0 + self.0
    }

    /// The paper's proof device of running an algorithm at `ε/3` so the
    /// compounded error telescopes back to `ε` (Theorem 6).
    #[must_use]
    pub fn third(self) -> Epsilon {
        Epsilon(self.0 / 3.0)
    }
}

/// Failure probability `δ ∈ (0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Delta(f64);

impl Delta {
    /// Validates and wraps a failure probability.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless `0 < value < 1` and
    /// `value` is finite.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && value > 0.0 && value < 1.0 {
            Ok(Self(value))
        } else {
            Err(Error::invalid(
                "delta",
                format!("must lie in (0, 1), got {value}"),
            ))
        }
    }

    /// The raw value.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Splits the failure budget across `k` independent components via a
    /// union bound: each component gets `δ/k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn split(self, k: usize) -> Delta {
        assert!(k > 0, "cannot split a failure budget zero ways");
        Delta(self.0 / k as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_accepts_open_interval() {
        assert!(Epsilon::new(0.5).is_ok());
        assert!(Epsilon::new(1e-9).is_ok());
        assert!(Epsilon::new(0.999_999).is_ok());
    }

    #[test]
    fn epsilon_rejects_boundary_and_garbage() {
        for bad in [0.0, 1.0, -0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Epsilon::new(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn delta_rejects_boundary_and_garbage() {
        for bad in [0.0, 1.0, -0.1, 2.0, f64::NAN] {
            assert!(Delta::new(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn base_and_third() {
        let e = Epsilon::new(0.3).unwrap();
        assert!((e.base() - 1.3).abs() < 1e-12);
        assert!((e.third().get() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn delta_helpers() {
        let d = Delta::new(0.01).unwrap();
        assert!((d.split(10).get() - 0.001).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "zero ways")]
    fn split_zero_panics() {
        let _ = Delta::new(0.1).unwrap().split(0);
    }
}
