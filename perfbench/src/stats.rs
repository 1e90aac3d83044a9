//! Exact order statistics: every sample is kept and percentiles are read
//! from the sorted samples by nearest rank.

/// All samples of one measured quantity, sorted ascending.
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sort and keep `values`.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile for `q` in (0, 1]; NaN without samples.
    pub fn pct(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted[rank(self.sorted.len(), q) - 1]
    }

    /// The median (lower middle for an even count).
    pub fn median(&self) -> f64 {
        self.pct(0.5)
    }

    /// Arithmetic mean; NaN without samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// A percentile is resolved when at least ten samples lie beyond it.
    pub fn resolved(&self, q: f64) -> bool {
        !self.sorted.is_empty() && self.sorted.len() - rank(self.sorted.len(), q) >= 10
    }

    /// The p99 for a report line, or `unresolved` when fewer than ten
    /// samples lie beyond it.
    pub fn p99_text(&self, scale: f64, unit: &str) -> String {
        if self.resolved(0.99) {
            format!("{:.3} {unit} (n={})", self.pct(0.99) * scale, self.len())
        } else {
            format!("unresolved (n={})", self.len())
        }
    }
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of a slice.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}
