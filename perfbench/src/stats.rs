//! Medians and tail percentiles.

/// The percentiles a tail may be reported at, highest first. The steps
/// are coarse so that a workload's sample count, which varies from run
/// to run with host speed, stays inside one step.
const TAIL_PERCENTILES: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a tail percentile.
const TAIL_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail statistic: the value at `percentile` of `samples` samples.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// Nearest-rank percentile reported.
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile with at least ten samples beyond it (nearest
/// rank). With fewer than twenty samples no percentile qualifies and
/// the median stands in, flagged by `samples`.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: f64::NAN,
            samples: 0,
        };
    }
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let percentile = TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n - rank(p) >= TAIL_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile,
        value: v[rank(percentile) - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 180.0, 200));
        let t = tail(&v[..99]);
        assert_eq!(t.percentile, 50.0);
        let t = tail(&v[..30]);
        assert_eq!((t.percentile, t.value), (50.0, 15.0));
    }
}
