//! Order statistics the ledger reports: medians, quartiles, nearest-rank
//! percentiles, and the window-median percentile used for request latency.

/// Median of `values` (mean of the middle pair for even counts); `0.0` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads printed here match the
/// ones the acceptance procedure computes.  Needs two values; fewer return
/// the lone value (or zero) for both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Rank k·(n+1)/4 (1-based), interpolated between its neighbours;
        // like Python, the two-value case extrapolates past the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the run-to-run spread the
/// acceptance procedure compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted sample; `0.0`
/// when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it in a sample of `n` — what a timing over requests may honestly
/// report as its tail.  `None` below 20 samples (even the median has fewer
/// than ten beyond it).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000), in whole numbers so that
    // 100 samples do support p90.
    [(99.99, 1), (99.9, 10), (99.0, 100), (95.0, 500), (90.0, 1_000), (75.0, 2_500), (50.0, 5_000)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10 * 10_000)
        .map(|(p, _)| p)
}

/// Sorts `(time, value)` samples by time and cuts them into `windows`
/// windows of equally many samples (the last may hold fewer); fewer samples
/// than windows give one window per sample.
pub fn split_windows<T: Copy>(samples: &[(u64, T)], windows: usize) -> Vec<Vec<(u64, T)>> {
    let mut sorted = samples.to_vec();
    sorted.sort_by_key(|s| s.0);
    sorted.chunks(sorted.len().div_ceil(windows.max(1)).max(1)).map(<[_]>::to_vec).collect()
}

/// The **median over windows** of each window's nearest-rank percentile.
/// One scheduler stall lands in one window, so it moves one of the window
/// percentiles and not the reported median.  No samples gives `0.0`.
pub fn window_median_percentile(samples: &[(u64, f64)], windows: usize, p: f64) -> f64 {
    let per_window: Vec<f64> = split_windows(samples, windows)
        .iter()
        .map(|w| percentile(&w.iter().map(|s| s.1).collect::<Vec<f64>>(), p))
        .collect();
    median(&per_window)
}

/// Least-squares slope of `ln y` against `ln x` — the fitted complexity
/// exponent of a timing series.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn one_stalled_window_does_not_move_the_window_median() {
        // Eight windows of 100 samples at 1.0, given out of order; window 3
        // holds a stall.
        let mut samples = Vec::new();
        for w in (0..8u64).rev() {
            for i in 0..100u64 {
                let v = if w == 3 && i >= 90 { 500.0 } else { 1.0 };
                samples.push((w * 1_000 + i * 10, v));
            }
        }
        assert_eq!(window_median_percentile(&samples, 8, 99.0), 1.0);
        // The whole-sample p99 is dominated by the stall.
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(&all, 99.0), 500.0);
        let windows = split_windows(&samples, 8);
        assert_eq!(windows.len(), 8);
        assert!(windows.iter().all(|w| w.len() == 100));
        assert!(windows[3].iter().all(|s| (3_000..4_000).contains(&s.0)));
        assert_eq!(split_windows(&samples[..3], 8).len(), 3);
        assert_eq!(window_median_percentile(&[], 8, 99.0), 0.0);
    }

    #[test]
    fn loglog_slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> =
            [1024.0f64, 4096.0, 16384.0].iter().map(|&t| (t, 3e-9 * t.powf(1.25))).collect();
        assert!((loglog_slope(&pts) - 1.25).abs() < 1e-9);
    }
}
