//! Series statistics for the arrival models' unit tests and the traffic
//! statistics tests (which include this file by path): the R/S Hurst
//! estimate and the sample autocorrelation.

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
