//! Order statistics over raw samples.
//!
//! Latencies are kept as raw nanosecond samples and sorted once per run, so
//! every reported percentile carries all its digits (a histogram bucket bound
//! would repeat exactly from run to run).

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted`, interpolating
/// linearly between the two closest ranks. 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let position = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let low = position.floor() as usize;
            let high = (low + 1).min(len - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
        }
    }
}

/// Sort `values` ascending (total order; NaN never occurs in measured data).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// the rule repeated-run spreads are judged by.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Clamp the ranks the way Python does for tiny samples.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let data = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&data, 0.0), 10.0);
        assert_eq!(quantile(&data, 0.5), 30.0);
        assert_eq!(quantile(&data, 1.0), 50.0);
        assert_eq!(quantile(&data, 0.125), 15.0);
        assert_eq!(quantile(&data, 0.95), 48.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }
}
