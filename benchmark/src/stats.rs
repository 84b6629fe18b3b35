//! Order statistics: per-phase percentiles, the median and quartiles over
//! rounds, and the quartile spread `selfcheck`/`compare` judge a metric by.

/// A sorted copy (NaN never occurs: every value is a measured time or
/// count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    v
}

/// The `p`-th percentile (0..=100) of a sample, interpolating linearly
/// between the two nearest ranks. An empty sample reads as 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; the driver judges spread this way.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0; // 1-based rank
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// `(max - min) / median`.
pub fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_vectors() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 99.0) - 99.01).abs() < 1e-9);
        // Eight rounds: the quartiles the untraced run reports.
        let rounds = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert!((percentile(&rounds, 25.0) - 2.75).abs() < 1e-9);
        assert!((percentile(&rounds, 75.0) - 6.25).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_outlier() {
        // Six round p50s, one of them hit by a scheduler hiccup.
        assert!((median(&[1.0, 1.1, 0.9, 1.0, 5.0, 1.05]) - 1.025).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-9 && (q3 - 8.25).abs() < 1e-9);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-9);
        // statistics.quantiles([10, 20, 40, 50, 90], n=4) == [15, 40, 70]
        let (q1, q3) = quartiles(&[50.0, 10.0, 90.0, 20.0, 40.0]);
        assert!((q1 - 15.0).abs() < 1e-9 && (q3 - 70.0).abs() < 1e-9);
        assert!((range_share(&[50.0, 10.0, 90.0, 20.0, 40.0]) - 2.0).abs() < 1e-9);
    }
}
