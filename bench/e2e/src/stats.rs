//! Sample statistics: medians, the percentile rule and A/A spread.

/// Percentiles the tail rule may report, ascending.
const LADDER: [f64; 5] = [0.50, 0.75, 0.90, 0.99, 0.999];

/// Sorts `samples` ascending in place (NaN-free by construction: every
/// sample is an elapsed time or a count).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Nearest-rank quantile of an ascending sample; 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(q, sorted.len()) - 1]
}

/// 1-based nearest rank of quantile `q` among `n >= 1` samples.  The
/// epsilon keeps `0.9 * 100` from rounding up to rank 91.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of an unsorted sample (mean of the middle two when even, so
/// a two-rep run does not report its slower rep).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The percentile rule: the highest ladder percentile that still has
/// at least ten samples beyond it.  Below twenty samples nothing
/// qualifies and the slowest sample is the tail (`q = 1.0`).
pub fn tail_quantile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n >= 20 && n - rank(q, n) >= 10)
        .unwrap_or(1.0)
}

/// `(percentile label, value)` of the tail of an ascending sample.
pub fn tail(sorted: &[f64]) -> (String, f64) {
    let q = tail_quantile(sorted.len());
    let label = if q >= 1.0 {
        "max".to_string()
    } else {
        format!("p{}", q * 100.0)
    };
    (label, quantile(sorted, q))
}

/// First quartile, median and third quartile by the "exclusive"
/// method — the one Python's `statistics.quantiles(values, n=4)` uses,
/// which is what the acceptance rule is stated in.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// bounds in `BENCHMARK.json` are compared with.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), 1.0);
        assert_eq!(tail_quantile(19), 1.0);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(99), 0.75);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(999), 0.90);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(9_999), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(tail(&sorted), ("p90".to_string(), 90.0));
        assert_eq!(tail(&sorted[..3]), ("max".to_string(), 3.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let (q1, q2, q3) = quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]);
        assert_eq!((q1, q2, q3), (15.0, 40.0, 120.0));
    }
}
