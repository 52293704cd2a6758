//! Sample statistics with the reporting rule the benchmark applies to
//! every timing: a median, and a high percentile only when at least ten
//! samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile (`pct` in whole percent, 1..=100) of
/// `samples`, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it (p99 needs at least 1000 samples, p50 at least 20).
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let n = samples.len();
    // Rank (1-based) of the nearest-rank percentile: ceil(pct * n / 100).
    let rank = (pct * n).div_ceil(100);
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample: the middle value, or the mean of the
/// two middle values when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Element-wise minimum over repeated passes of one sequence of
/// operations: entry `i` is the fastest of every pass's entry `i`. A
/// shared host only ever adds time to an operation, so the fastest
/// repeat is the closest to the program's own cost, and a host slowdown
/// reaches the result only if it hits every repeat at that position.
pub fn positional_min(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    assert!(
        passes.iter().all(|p| p.len() == n),
        "passes differ in length"
    );
    (0..n)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Metric-by-metric median over repeats that each report the same names.
pub fn median_by_name(repeats: &[Vec<(String, f64)>]) -> Vec<(String, f64)> {
    let Some(first) = repeats.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let vals: Vec<f64> = repeats.iter().map(|r| r[i].1).collect();
            (name.clone(), median(&vals))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order so the function has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 99), Some(1980.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
    }

    #[test]
    fn exactly_ten_samples_lie_beyond_a_minimal_p99() {
        let s = ramp(1000);
        let p = percentile(&s, 99).expect("1000 samples support p99");
        assert_eq!(s.iter().filter(|&&v| v > p).count(), MIN_BEYOND);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn positional_min_takes_each_position_separately() {
        let passes = vec![
            vec![1.0, 9.0, 5.0],
            vec![2.0, 1.0, 50.0],
            vec![3.0, 2.0, 6.0],
        ];
        assert_eq!(positional_min(&passes), vec![1.0, 1.0, 5.0]);
    }
}
