//! Mean ± standard deviation over repeated runs.
//!
//! Every table in the paper reports "average … with StdDevs (over 10
//! random seeds)"; [`MeanStd`] is that aggregation.

use std::fmt;

/// Accumulates scalar samples and reports mean and (population) standard
/// deviation.
#[derive(Clone, Debug, Default)]
pub struct MeanStd {
    samples: Vec<f64>,
}

impl MeanStd {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from existing samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        Self {
            samples: samples.into_iter().collect(),
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// The samples in push order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples exist.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation (0 when fewer than 2 samples).
    pub fn std(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.samples.iter().map(|v| (v - m).powi(2)).sum::<f64>() / self.samples.len() as f64)
            .sqrt()
    }

    /// Formats as the paper does: `93.41 (0.3)` for percentages.
    pub fn paper_pct(&self) -> String {
        format!("{:.2} ({:.1})", self.mean() * 100.0, self.std() * 100.0)
    }
}

impl fmt::Display for MeanStd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean(), self.std())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let m = MeanStd::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.std() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let empty = MeanStd::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.std(), 0.0);
        let one = MeanStd::from_samples([3.0]);
        assert_eq!(one.mean(), 3.0);
        assert_eq!(one.std(), 0.0);
    }

    #[test]
    fn paper_formatting() {
        let m = MeanStd::from_samples([0.9341, 0.9341]);
        assert_eq!(m.paper_pct(), "93.41 (0.0)");
    }
}
