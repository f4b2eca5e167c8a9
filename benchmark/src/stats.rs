//! Order statistics over timing samples.

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples a reported percentile needs beyond it.
pub const SAMPLES_BEYOND: usize = 10;

/// The highest of p99, p90 and p50 with at least [`SAMPLES_BEYOND`] of `n`
/// samples above it (p50 when even that has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= SAMPLES_BEYOND as f64)
        .unwrap_or(50.0)
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default exclusive method),
/// so spreads printed here match the ones a Python check computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let data = sorted(samples);
    let ld = data.len();
    match ld {
        0 => (0.0, 0.0),
        1 => (data[0], data[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(32_000), 99.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
