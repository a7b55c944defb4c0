//! Order statistics used by every reported timing.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of sorted data at `q` in `[0, 1]`
/// (the "inclusive" definition: `q = 0` is the minimum, `q = 1` the
/// maximum). Returns `NaN` for no data.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median (`NaN` for no data).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// Lower quartile, interpolated like [`median`] (`NaN` for no data).
pub fn lower_quartile(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.25)
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default
/// "exclusive" method, which extrapolates past the extremes for tiny
/// samples). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len() as i64;
    if n < 2 {
        return None;
    }
    let at = |i: i64| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile range as a share of the median — the spread the
/// acceptance rule compares against a metric's bound.
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs))
}

/// The highest percentile (whole number) that still has at least ten
/// samples above it, and its value: with `n` samples, percentile `p`
/// qualifies when `n · (1 − p/100) ≥ 10`. `None` below 11 samples —
/// there is no tail to report.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let p = (1..100u32)
        .rev()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0 - 1e-9)?;
    Some((p, quantile_sorted(&sorted(xs), f64::from(p) / 100.0)))
}

/// Geometric mean of positive values (`NaN` when empty or any value is
/// not positive).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_lower_quartile_handle_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert_eq!(lower_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.75);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), Some((4.0, 10.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_iqr(&xs).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        // 20 samples: p50 leaves exactly 10 above it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).map(|(p, _)| p), Some(50));
        // 100 samples: p90; 1000 samples: p99; 8640 samples: p99.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs).unwrap();
        assert_eq!(p, 90);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).map(|(p, _)| p), Some(99));
        let xs: Vec<f64> = (0..8640).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).map(|(p, _)| p), Some(99));
        // 72 samples: 86% leaves 10.08 above, 87% only 9.36.
        let xs: Vec<f64> = (0..72).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).map(|(p, _)| p), Some(86));
    }

    #[test]
    fn geomean_of_ratios_and_degenerate_inputs() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }
}
