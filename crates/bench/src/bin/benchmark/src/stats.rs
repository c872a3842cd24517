//! Order statistics used for every reported number.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice, which only layers a workload bypasses produce.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0..=100`): the smallest value with at
/// least `p` % of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses by default, so `--repeat` judges
/// a row the way the driver does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Negative when the clamp moved `j` up: Python extrapolates there too.
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0, 5.0], 99.0), 7.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        //   == [3.5, 13.5, 31.0]; [1, 2] gives [0.75, 1.5, 2.25].
        let q = quartiles(&[1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0]);
        assert_eq!(q, [3.5, 13.5, 31.0]);
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert!((relative_spread(&[2.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
