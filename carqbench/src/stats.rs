//! Order statistics for timing samples.

/// The minimum number of samples a reported tail percentile must keep
/// beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0];

/// Nearest-rank percentile of `samples` (`p` in 0..=100). Panics on an
/// empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    sorted[rank(sorted.len(), p)]
}

/// The median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Zero-based index of the nearest-rank `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A tail reading: which percentile, its value, and its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The highest candidate percentile that keeps at least [`TAIL_BEYOND`]
/// samples beyond it. With too few samples for any candidate it falls
/// back to the median and says so through `beyond`.
pub fn tail(samples: &[f64]) -> Tail {
    let sorted = sorted(samples);
    let n = sorted.len();
    let pick = |p: f64| {
        let r = rank(n, p);
        Tail { percentile: p, value: sorted[r], samples: n, beyond: n - 1 - r }
    };
    TAIL_CANDIDATES
        .iter()
        .map(|&p| pick(p))
        .find(|t| t.beyond >= TAIL_BEYOND)
        .unwrap_or_else(|| pick(50.0))
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it_at_every_size() {
        for n in 21..5_000 {
            let samples: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&samples);
            assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
            let above = samples.iter().filter(|&&x| x > t.value).count();
            assert!(above >= TAIL_BEYOND, "n={n}: only {above} samples above {t:?}");
            // The next-higher candidate would not have qualified.
            if let Some(&higher) = TAIL_CANDIDATES.iter().rev().find(|&&p| p > t.percentile) {
                assert!(n - 1 - rank(n, higher) < TAIL_BEYOND, "n={n}: {higher} also qualifies");
            }
        }
    }

    #[test]
    fn tail_picks_p99_with_a_thousand_samples_and_falls_back_when_short() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few).percentile, 50.0);
    }

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
