//! Order statistics over small sample sets.

/// Median; 0 for an empty set (only inapplicable metrics are empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the benchmark contract uses
/// for run-to-run spread; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(1), at(2), at(3))
}

/// The highest percentile that still has ten samples beyond it (the
/// eleventh largest value); the maximum when there are too few samples for
/// any, 0 for an empty set.
pub fn tail(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n <= 10 => v[n - 1],
        n => v[n - 11],
    }
}

/// Split `n` samples into at most `blocks` contiguous, near-equal ranges.
pub fn block_ranges(n: usize, blocks: usize) -> Vec<std::ops::Range<usize>> {
    let b = blocks.min(n).max(1);
    (0..b).map(|i| (i * n / b)..((i + 1) * n / b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), 89.0);
        assert_eq!(tail(&[3.0, 9.0]), 9.0);
    }

    #[test]
    fn block_ranges_cover_everything_once() {
        let r = block_ranges(7, 5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.iter().map(|r| r.len()).sum::<usize>(), 7);
        assert_eq!(block_ranges(3, 5).len(), 3);
    }
}
