//! Small statistics helpers for experiment summaries.

/// Arithmetic mean (0 for an empty slice).
#[must_use]
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum (0 for an empty slice).
#[must_use]
pub(crate) fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0f64, f64::max)
}

/// Fraction of entries satisfying a predicate.
#[must_use]
pub(crate) fn fraction<T>(xs: &[T], pred: impl Fn(&T) -> bool) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|x| pred(x)).count() as f64 / xs.len() as f64
}

/// Total-variation distance between an empirical count vector and the
/// uniform distribution over the same support.
#[must_use]
pub(crate) fn tv_from_uniform(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return 0.0;
    }
    let uniform = 1.0 / counts.len() as f64;
    0.5 * counts
        .iter()
        .map(|&c| (c as f64 / total as f64 - uniform).abs())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn fraction_counts() {
        assert_eq!(fraction(&[1, 2, 3, 4], |&x| x % 2 == 0), 0.5);
        assert_eq!(fraction::<i32>(&[], |_| true), 0.0);
    }

    #[test]
    fn tv_uniform_is_zero() {
        assert_eq!(tv_from_uniform(&[5, 5, 5, 5]), 0.0);
    }

    #[test]
    fn tv_point_mass() {
        // All mass on one of four cells: TV = 0.5·(|1−0.25| + 3·0.25) = 0.75.
        assert!((tv_from_uniform(&[8, 0, 0, 0]) - 0.75).abs() < 1e-12);
    }
}
