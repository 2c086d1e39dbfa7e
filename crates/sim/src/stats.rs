//! Series statistics for traffic validation and experiment reporting.
//!
//! The traffic generators need their statistical claims checked — e.g. that
//! the Pareto-on-off source superposition really produces a Hurst exponent
//! above one half — and every figure is a per-period [`TimeSeries`] written
//! out as CSV. Everything here is dependency-free and allocation-light.

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

/// Estimates the Hurst exponent of a series by rescaled-range (R/S)
/// analysis.
///
/// The series is divided into blocks of several sizes; for each size the
/// mean R/S statistic is computed, and the exponent is the slope of
/// log(R/S) against log(size) by least squares. Values near 0.5 indicate
/// short-range dependence; self-similar traffic shows 0.7–0.9.
///
/// Returns `None` for series shorter than 32 points or without variation.
pub fn hurst_rs(series: &[f64]) -> Option<f64> {
    if series.len() < 32 {
        return None;
    }
    let mut points = Vec::new();
    let mut size = 8usize;
    while size <= series.len() / 2 {
        let mut rs_values = Vec::new();
        for block in series.chunks_exact(size) {
            if let Some(rs) = rescaled_range(block) {
                rs_values.push(rs);
            }
        }
        if !rs_values.is_empty() {
            let mean_rs = rs_values.iter().sum::<f64>() / rs_values.len() as f64;
            if mean_rs > 0.0 {
                points.push(((size as f64).ln(), mean_rs.ln()));
            }
        }
        size *= 2;
    }
    if points.len() < 2 {
        return None;
    }
    Some(least_squares_slope(&points))
}

fn rescaled_range(block: &[f64]) -> Option<f64> {
    let n = block.len() as f64;
    let mean = block.iter().sum::<f64>() / n;
    let std = (block.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt();
    if std == 0.0 {
        return None;
    }
    let mut cumulative = 0.0;
    let mut max_dev: f64 = f64::NEG_INFINITY;
    let mut min_dev: f64 = f64::INFINITY;
    for &x in block {
        cumulative += x - mean;
        max_dev = max_dev.max(cumulative);
        min_dev = min_dev.min(cumulative);
    }
    Some((max_dev - min_dev) / std)
}

fn least_squares_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
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
    fn hurst_of_white_noise_is_near_half() {
        let mut rng = SimRng::seed_from_u64(3);
        let series: Vec<f64> = (0..4096).map(|_| rng.standard_normal()).collect();
        let h = hurst_rs(&series).unwrap();
        assert!((0.4..0.65).contains(&h), "white noise hurst {h}");
    }

    #[test]
    fn hurst_of_integrated_noise_is_high() {
        // A random walk's increments are maximally persistent when the walk
        // itself is fed to R/S analysis.
        let mut rng = SimRng::seed_from_u64(4);
        let mut level = 0.0;
        let series: Vec<f64> = (0..4096)
            .map(|_| {
                level += rng.standard_normal();
                level
            })
            .collect();
        let h = hurst_rs(&series).unwrap();
        assert!(h > 0.8, "random walk hurst {h}");
    }

    #[test]
    fn hurst_rejects_short_or_flat_series() {
        assert_eq!(hurst_rs(&[1.0; 10]), None);
        assert_eq!(hurst_rs(&[2.5; 64]), None);
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
