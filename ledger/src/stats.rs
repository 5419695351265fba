//! Order statistics shared by the runner and the comparison tool.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same values with the standard library there.

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile, `statistics.quantiles(values, n=4)` style.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The `p`-th percentile (0 ≤ p ≤ 100) by the nearest-rank method: the
/// smallest value with at least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 95.0), 190.0);
        assert_eq!(percentile(&values, 50.0), 100.0);
        assert_eq!(percentile(&values, 100.0), 200.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }
}
