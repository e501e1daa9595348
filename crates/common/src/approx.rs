//! Approximation contracts.
//!
//! §2.3 of the paper defines two contracts for a streaming estimator
//! `ĥ` of the true H-index `h*`:
//!
//! * **multiplicative** `(ε, δ, s)`: `|h* − ĥ| ≤ ε·h*` with probability
//!   `≥ 1 − δ`;
//! * **additive** `(ε, δ, s)`: `|h* − ĥ| ≤ ε·n` with probability
//!   `≥ 1 − δ`.
//!
//! The helpers here are how tests and experiments *check* those
//! contracts against ground truth.

use crate::params::{Delta, Epsilon};

/// Which flavour of approximation a guarantee promises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproxKind {
    /// Error measured relative to the true value: `|h* − ĥ| ≤ ε·h*`.
    Multiplicative,
    /// Error measured against the scale `n`: `|h* − ĥ| ≤ ε·n`.
    Additive,
}

/// A complete `(kind, ε, δ)` guarantee, as carried by estimators for
/// reporting and by experiments for checking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guarantee {
    /// Multiplicative or additive.
    pub kind: ApproxKind,
    /// Accuracy parameter.
    pub epsilon: Epsilon,
    /// Failure probability (deterministic algorithms report δ → 0 as
    /// `None`).
    pub delta: Option<Delta>,
}

impl Guarantee {
    /// A randomized guarantee.
    #[must_use]
    pub fn randomized(kind: ApproxKind, epsilon: Epsilon, delta: Delta) -> Self {
        Self {
            kind,
            epsilon,
            delta: Some(delta),
        }
    }

    /// Checks one observation against this guarantee.
    ///
    /// `scale` is `n` for additive guarantees and ignored for
    /// multiplicative ones.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn holds(&self, true_value: u64, estimate: u64, scale: u64) -> bool {
        match self.kind {
            ApproxKind::Multiplicative => {
                within_multiplicative(true_value, estimate, self.epsilon.get())
            }
            ApproxKind::Additive => within_additive(true_value, estimate, self.epsilon.get(), scale),
        }
    }
}

/// `|true − est| ≤ ε · true`, with exact integer arithmetic (no float
/// round-off on the comparison side).
#[cfg(test)]
#[must_use]
pub(crate) fn within_multiplicative(true_value: u64, estimate: u64, epsilon: f64) -> bool {
    let diff = true_value.abs_diff(estimate) as f64;
    diff <= epsilon * true_value as f64
}

/// `|true − est| ≤ ε · scale`.
#[cfg(test)]
#[must_use]
pub(crate) fn within_additive(true_value: u64, estimate: u64, epsilon: f64, scale: u64) -> bool {
    let diff = true_value.abs_diff(estimate) as f64;
    diff <= epsilon * scale as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplicative_basics() {
        assert!(within_multiplicative(100, 90, 0.1));
        assert!(within_multiplicative(100, 110, 0.1));
        assert!(!within_multiplicative(100, 89, 0.1));
        assert!(!within_multiplicative(100, 112, 0.1));
        // h* = 0 forces an exact answer.
        assert!(within_multiplicative(0, 0, 0.1));
        assert!(!within_multiplicative(0, 1, 0.1));
    }

    #[test]
    fn additive_basics() {
        assert!(within_additive(100, 50, 0.1, 1000));
        assert!(!within_additive(100, 50, 0.01, 1000));
        assert!(within_additive(0, 5, 0.1, 100));
    }

    #[test]
    fn guarantee_dispatches_by_kind() {
        let eps = Epsilon::new(0.1).unwrap();
        let m = Guarantee {
            kind: ApproxKind::Multiplicative,
            epsilon: eps,
            delta: None,
        };
        assert!(m.holds(100, 91, 999_999)); // scale ignored
        assert!(!m.holds(100, 80, 999_999));

        let a = Guarantee::randomized(ApproxKind::Additive, eps, Delta::new(0.05).unwrap());
        assert!(a.holds(100, 80, 1000)); // |20| ≤ 0.1·1000
        assert!(!a.holds(100, 80, 100));
    }
}
