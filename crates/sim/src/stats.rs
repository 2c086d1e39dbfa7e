//! Series for experiment reporting: every figure is a per-period
//! [`TimeSeries`] written out as CSV. Everything here is dependency-free
//! and allocation-light.

use serde::{Deserialize, Serialize};

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
