//! Order statistics the ledger reports: medians, tail percentiles that the
//! sample can support, and the quartile spread the driver gates on.

/// Sort ascending. Timings are never NaN; a NaN would be a harness bug.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample, `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps `0.99 * 1000` from rounding up past 990 through float error.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A tail percentile together with what the sample could support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, as a share (0.99 = p99).
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Sample count it was taken from.
    pub n: usize,
}

/// Percentiles tried by [`tail`], highest first.
const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile not above `want` that has at least
/// [`MIN_BEYOND`] samples beyond it; the median when the sample is too
/// small for any. A p99 of 200 samples would be set by two of them.
pub fn tail(sorted: &[f64], want: f64) -> Tail {
    let n = sorted.len();
    let p = LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
        .unwrap_or(0.5);
    Tail {
        p,
        value: percentile(sorted, p),
        n,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let s = sorted(values.to_vec());
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = |n: usize| -> Vec<f64> { (1..=n).map(|x| x as f64).collect() };
        // 1000 samples: exactly ten lie beyond p99, one beyond p99.9.
        let t = tail(&s(1000), 0.99);
        assert_eq!((t.p, t.value, t.n), (0.99, 990.0, 1000));
        assert_eq!(tail(&s(1000), 0.999).p, 0.99);
        assert_eq!(tail(&s(10_000), 0.999).p, 0.999);
        // 999 samples leave nine beyond p99: fall back to p95.
        assert_eq!(tail(&s(999), 0.99).p, 0.95);
        assert_eq!(tail(&s(100), 0.99).p, 0.9);
        assert_eq!(tail(&s(20), 0.99).p, 0.5);
        assert_eq!(tail(&s(3), 0.99).p, 0.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
