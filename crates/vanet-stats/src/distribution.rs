//! A sorted-sample distribution carrier for trace-driven analyses.
//!
//! The recovery-latency analysis in `vanet-analysis` produces one sample per
//! repaired packet; what the paper's argument needs from those samples is a
//! *distribution* (the rival ARQ schemes trade tails, not means). This
//! module holds the generic carrier: a sorted sample with percentile and
//! summary views, all deterministic functions of the input multiset.

use serde::{Deserialize, Serialize};

use crate::summary::{mean, Percentiles};

/// A sample distribution: values sorted ascending, queried for percentiles
/// and the mean.
///
/// Construction sorts once; every view after that is read-only, so the same
/// sample always renders the same tables regardless of the order the samples
/// were collected in (the analysis determinism tests rely on this).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Distribution {
    sorted: Vec<f64>,
}

impl Distribution {
    /// Builds a distribution from an unordered sample.
    ///
    /// # Panics
    /// Panics if any sample is NaN — a NaN latency or airtime is an upstream
    /// bug, not a data point.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(!sorted.iter().any(|v| v.is_nan()), "distribution samples must not contain NaN");
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
        Distribution { sorted }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted sample.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Arithmetic mean; zero for an empty distribution.
    pub fn mean(&self) -> f64 {
        mean(&self.sorted)
    }

    /// The min/p50/p90/p99/max spread, or `None` for an empty distribution
    /// (so callers must decide how to render "no samples" instead of
    /// silently printing zeros).
    pub fn percentiles(&self) -> Option<Percentiles> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(Percentiles::of(&self.sorted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_summarises() {
        let d = Distribution::from_samples([5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(d.count(), 5);
        assert_eq!(d.samples(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((d.mean() - 3.0).abs() < 1e-12);
        let p = d.percentiles().unwrap();
        assert_eq!((p.min, p.p50, p.max), (1.0, 3.0, 5.0));
        // Construction order does not matter.
        assert_eq!(d, Distribution::from_samples([4.0, 2.0, 5.0, 3.0, 1.0]));
    }

    #[test]
    fn empty_distribution_declines_to_summarise() {
        let d = Distribution::from_samples([]);
        assert!(d.is_empty());
        assert_eq!(d.percentiles(), None);
        assert_eq!(d.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_samples_panic() {
        let _ = Distribution::from_samples([1.0, f64::NAN]);
    }
}
