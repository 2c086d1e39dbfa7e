//! Series statistics for traffic validation and experiment reporting.
//!
//! The traffic generators need their statistical claims checked — e.g. that
//! an MMPP's per-second counts are correlated where Poisson's are not —
//! and every figure is a per-period [`TimeSeries`] written out as CSV. Everything here is dependency-free and allocation-light.

use serde::{Deserialize, Serialize};

/// Sample autocorrelation of a series at the given lag.
///
/// Returns 0 for series shorter than `lag + 2` or with zero variance.
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    if series.len() < lag + 2 {
        return 0.0;
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|x| (x - mean).powi(2)).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let numer: f64 = (0..n - lag)
        .map(|i| (series[i] - mean) * (series[i + lag] - mean))
        .sum();
    numer / denom
}

/// A time series of (period index, value) pairs with CSV export — the
/// common shape of every figure in the paper.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Appends a value for the next period.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// The series name (used as the CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The recorded values in period order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of recorded periods.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Renders several aligned series as CSV: `period,<name1>,<name2>,...`.
    /// Shorter series pad with empty cells.
    pub fn to_csv(series: &[&TimeSeries]) -> String {
        let mut out = String::from("period");
        for s in series {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        let rows = series.iter().map(|s| s.len()).max().unwrap_or(0);
        for row in 0..rows {
            out.push_str(&row.to_string());
            for s in series {
                out.push(',');
                if let Some(v) = s.values.get(row) {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn autocorrelation_of_iid_is_near_zero() {
        let mut rng = SimRng::seed_from_u64(1);
        let series: Vec<f64> = (0..5000).map(|_| rng.standard_normal()).collect();
        assert!(autocorrelation(&series, 1).abs() < 0.05);
        assert!(autocorrelation(&series, 10).abs() < 0.05);
    }

    #[test]
    fn autocorrelation_of_persistent_series_is_high() {
        // AR(1) with phi = 0.9.
        let mut rng = SimRng::seed_from_u64(2);
        let mut series = vec![0.0f64];
        for _ in 0..5000 {
            let prev = *series.last().unwrap();
            series.push(0.9 * prev + rng.standard_normal());
        }
        assert!(autocorrelation(&series, 1) > 0.85);
    }

    #[test]
    fn autocorrelation_degenerate_inputs() {
        assert_eq!(autocorrelation(&[], 1), 0.0);
        assert_eq!(autocorrelation(&[1.0, 1.0, 1.0, 1.0], 1), 0.0); // zero variance
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0); // lag too large
    }

    #[test]
    fn time_series_csv_alignment() {
        let mut a = TimeSeries::new("syn");
        let mut b = TimeSeries::new("synack");
        a.push(10.0);
        a.push(20.0);
        b.push(9.0);
        let csv = TimeSeries::to_csv(&[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "period,syn,synack");
        assert_eq!(lines[1], "0,10,9");
        assert_eq!(lines[2], "1,20,");
        assert_eq!(a.max(), Some(20.0));
        assert!(!a.is_empty());
    }
}
