//! A general sequential change-detection framework and baseline detectors.
//!
//! The paper chooses the non-parametric CUSUM for its statelessness and
//! asymptotic optimality; the ablation benchmarks need something to compare
//! it against. [`ChangeDetector`] abstracts "feed one observation, maybe
//! alarm", and is implemented by the paper's CUSUM plus three classical
//! control-chart baselines and a parametric CUSUM that must be told the
//! pre/post-change means.
//!
//! All baselines consume the same normalized series `X_n` that SYN-dog's
//! CUSUM does, so comparisons isolate the *decision rule*, not the input
//! processing.

use crate::cusum::NonParametricCusum;

/// A sequential (on-line) change-point detector over a scalar series.
///
/// Implementations are deliberately object-safe so heterogeneous detector
/// banks can be benchmarked side by side (`Vec<Box<dyn ChangeDetector>>`).
pub trait ChangeDetector {
    /// Feeds one observation; returns `true` if the detector alarms at this
    /// observation.
    fn update(&mut self, x: f64) -> bool;

    /// The current value of the detector's internal test statistic.
    fn statistic(&self) -> f64;

    /// Restores the freshly-constructed state.
    fn reset(&mut self);

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

impl ChangeDetector for NonParametricCusum {
    fn update(&mut self, x: f64) -> bool {
        NonParametricCusum::update(self, x).alarm
    }

    fn statistic(&self) -> f64 {
        NonParametricCusum::statistic(self)
    }

    fn reset(&mut self) {
        NonParametricCusum::reset(self);
    }

    fn name(&self) -> &'static str {
        "non-parametric cusum"
    }
}

/// Parametric (Page's) CUSUM for a Gaussian mean shift from `mu0` to `mu1`
/// with known standard deviation.
///
/// Accumulates the log-likelihood ratio increments
/// `(mu1 − mu0)/σ² · (x − (mu0 + mu1)/2)`, clamped at zero. Asymptotically
/// optimal *when the model is right* — the ablation shows how it degrades
/// when traffic violates the Gaussian i.i.d. assumption.
#[derive(Debug, Clone, PartialEq)]
pub struct ParametricCusum {
    mu0: f64,
    mu1: f64,
    sigma: f64,
    threshold: f64,
    statistic: f64,
}

impl ParametricCusum {
    /// Creates a detector for a shift from mean `mu0` to `mu1 > mu0` with
    /// common standard deviation `sigma`, alarming when the accumulated
    /// log-likelihood ratio reaches `threshold`.
    ///
    /// # Panics
    ///
    /// Panics unless `mu1 > mu0`, `sigma > 0` and `threshold > 0`.
    pub fn new(mu0: f64, mu1: f64, sigma: f64, threshold: f64) -> Self {
        assert!(mu1 > mu0, "post-change mean must exceed pre-change mean");
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        assert!(
            threshold > 0.0,
            "threshold must be positive, got {threshold}"
        );
        ParametricCusum {
            mu0,
            mu1,
            sigma,
            threshold,
            statistic: 0.0,
        }
    }
}

impl ChangeDetector for ParametricCusum {
    fn update(&mut self, x: f64) -> bool {
        if x.is_finite() {
            let z = (self.mu1 - self.mu0) / (self.sigma * self.sigma)
                * (x - (self.mu0 + self.mu1) / 2.0);
            self.statistic = (self.statistic + z).max(0.0);
        }
        self.statistic >= self.threshold
    }

    fn statistic(&self) -> f64 {
        self.statistic
    }

    fn reset(&mut self) {
        self.statistic = 0.0;
    }

    fn name(&self) -> &'static str {
        "parametric cusum"
    }
}

/// EWMA control chart: smooths the series with factor `lambda` and alarms
/// when the smoothed value exceeds `limit`.
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaChart {
    lambda: f64,
    limit: f64,
    ewma: f64,
}

impl EwmaChart {
    /// Creates a chart with smoothing factor `lambda` in `(0, 1]` and
    /// control limit `limit`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lambda <= 1`.
    pub fn new(lambda: f64, limit: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "lambda must lie in (0, 1], got {lambda}"
        );
        EwmaChart {
            lambda,
            limit,
            ewma: 0.0,
        }
    }
}

impl ChangeDetector for EwmaChart {
    fn update(&mut self, x: f64) -> bool {
        if x.is_finite() {
            self.ewma = self.lambda * x + (1.0 - self.lambda) * self.ewma;
        }
        self.ewma >= self.limit
    }

    fn statistic(&self) -> f64 {
        self.ewma
    }

    fn reset(&mut self) {
        self.ewma = 0.0;
    }

    fn name(&self) -> &'static str {
        "ewma chart"
    }
}

/// Shewhart chart: alarms whenever a single observation exceeds `limit`.
///
/// Memoryless — the classical strawman that CUSUM's *cumulative* effect is
/// designed to beat for small persistent shifts.
#[derive(Debug, Clone, PartialEq)]
pub struct ShewhartChart {
    limit: f64,
    last: f64,
}

impl ShewhartChart {
    /// Creates a chart alarming on any observation at or above `limit`.
    pub fn new(limit: f64) -> Self {
        ShewhartChart { limit, last: 0.0 }
    }
}

impl ChangeDetector for ShewhartChart {
    fn update(&mut self, x: f64) -> bool {
        if x.is_finite() {
            self.last = x;
        }
        self.last >= self.limit
    }

    fn statistic(&self) -> f64 {
        self.last
    }

    fn reset(&mut self) {
        self.last = 0.0;
    }

    fn name(&self) -> &'static str {
        "shewhart chart"
    }
}

/// Sliding-window z-test: compares the mean of the most recent `window`
/// observations against the long-run mean/variance of everything before
/// the window, alarming when the z-score reaches `z_limit`.
///
/// Needs `O(window)` memory — included to quantify what SYN-dog's three
/// floats of state give up (very little, it turns out).
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingZTest {
    window: usize,
    z_limit: f64,
    recent: std::collections::VecDeque<f64>,
    history_count: u64,
    history_mean: f64,
    history_m2: f64,
    z: f64,
}

impl SlidingZTest {
    /// Creates a test with the given window length and z-score limit.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize, z_limit: f64) -> Self {
        assert!(window > 0, "window must be non-empty");
        SlidingZTest {
            window,
            z_limit,
            recent: std::collections::VecDeque::with_capacity(window + 1),
            history_count: 0,
            history_mean: 0.0,
            history_m2: 0.0,
            z: 0.0,
        }
    }

    fn push_history(&mut self, x: f64) {
        self.history_count += 1;
        let delta = x - self.history_mean;
        self.history_mean += delta / self.history_count as f64;
        self.history_m2 += delta * (x - self.history_mean);
    }
}

impl ChangeDetector for SlidingZTest {
    fn update(&mut self, x: f64) -> bool {
        if x.is_finite() {
            self.recent.push_back(x);
            if self.recent.len() > self.window {
                let oldest = self.recent.pop_front().expect("non-empty by len check");
                self.push_history(oldest);
            }
        }
        if self.history_count >= 2 && self.recent.len() == self.window {
            let window_mean = self.recent.iter().sum::<f64>() / self.recent.len() as f64;
            let history_var = self.history_m2 / (self.history_count - 1) as f64;
            let std_err = (history_var / self.window as f64).sqrt();
            self.z = if std_err > 0.0 {
                (window_mean - self.history_mean) / std_err
            } else if window_mean > self.history_mean {
                f64::INFINITY
            } else {
                0.0
            };
        }
        self.z >= self.z_limit
    }

    fn statistic(&self) -> f64 {
        self.z
    }

    fn reset(&mut self) {
        self.recent.clear();
        self.history_count = 0;
        self.history_mean = 0.0;
        self.history_m2 = 0.0;
        self.z = 0.0;
    }

    fn name(&self) -> &'static str {
        "sliding z-test"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a detector over a series, returning the index of the first
    /// alarm.
    fn first_alarm_index<D: ChangeDetector + ?Sized>(
        detector: &mut D,
        series: &[f64],
    ) -> Option<usize> {
        series.iter().position(|&x| detector.update(x))
    }

    fn step_series(pre: f64, post: f64, change_at: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| if i < change_at { pre } else { post })
            .collect()
    }

    #[test]
    fn nonparametric_cusum_through_trait() {
        let mut d: Box<dyn ChangeDetector> = Box::new(NonParametricCusum::new(0.35, 1.05));
        let series = step_series(0.05, 0.9, 50, 70);
        let idx = first_alarm_index(d.as_mut(), &series).unwrap();
        assert_eq!(
            idx, 51,
            "0.55 per period crosses 1.05 on the second flood period"
        );
        assert_eq!(d.name(), "non-parametric cusum");
        d.reset();
        assert_eq!(d.statistic(), 0.0);
    }

    #[test]
    fn parametric_cusum_detects_known_shift() {
        let mut d = ParametricCusum::new(0.0, 1.0, 0.5, 4.0);
        let series = step_series(0.0, 1.0, 30, 60);
        let idx = first_alarm_index(&mut d, &series).unwrap();
        assert!((30..35).contains(&idx), "alarmed at {idx}");
    }

    #[test]
    fn parametric_cusum_ignores_below_midpoint_noise() {
        let mut d = ParametricCusum::new(0.0, 1.0, 0.5, 4.0);
        for _ in 0..1000 {
            assert!(!d.update(0.3)); // below (mu0+mu1)/2
        }
        assert_eq!(d.statistic(), 0.0);
    }

    #[test]
    fn ewma_chart_lags_then_detects() {
        let mut d = EwmaChart::new(0.2, 0.5);
        let series = step_series(0.0, 1.0, 20, 60);
        let idx = first_alarm_index(&mut d, &series).unwrap();
        // EWMA reaches 0.5 after ~ln(0.5)/ln(0.8) ≈ 3.1 post-change steps.
        assert!((22..27).contains(&idx), "alarmed at {idx}");
    }

    #[test]
    fn ewma_lambda_one_is_shewhart() {
        let mut ewma = EwmaChart::new(1.0, 0.5);
        let mut shewhart = ShewhartChart::new(0.5);
        for &x in &[0.1, 0.6, 0.2, 0.5, 0.49] {
            assert_eq!(ewma.update(x), shewhart.update(x));
        }
    }

    #[test]
    fn shewhart_misses_sub_threshold_persistent_shift() {
        // The motivating failure: a persistent small shift never trips a
        // memoryless detector but accumulates in CUSUM.
        let mut shewhart = ShewhartChart::new(1.0);
        let mut cusum = NonParametricCusum::new(0.35, 1.05);
        let series = vec![0.6; 50];
        assert_eq!(first_alarm_index(&mut shewhart, &series), None);
        assert!(first_alarm_index(&mut cusum, &series).is_some());
    }

    #[test]
    fn sliding_z_detects_mean_shift() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut series: Vec<f64> = (0..200).map(|_| rng.gen::<f64>()).collect();
        series.extend((0..30).map(|_| 2.0 + rng.gen::<f64>()));
        let mut d = SlidingZTest::new(10, 6.0);
        let idx = first_alarm_index(&mut d, &series).unwrap();
        assert!((200..215).contains(&idx), "alarmed at {idx}");
    }

    #[test]
    fn sliding_z_quiet_on_homogeneous_noise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let series: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>()).collect();
        let mut d = SlidingZTest::new(10, 6.0);
        assert_eq!(first_alarm_index(&mut d, &series), None);
    }

    #[test]
    fn sliding_z_zero_variance_history() {
        let mut d = SlidingZTest::new(3, 4.0);
        let mut series = vec![1.0; 20];
        series.extend([5.0, 5.0, 5.0]);
        let idx = first_alarm_index(&mut d, &series);
        assert!(idx.is_some(), "shift above flat history must alarm");
    }

    #[test]
    fn detectors_tolerate_nan() {
        let mut bank: Vec<Box<dyn ChangeDetector>> = vec![
            Box::new(NonParametricCusum::new(0.35, 1.05)),
            Box::new(ParametricCusum::new(0.0, 1.0, 1.0, 5.0)),
            Box::new(EwmaChart::new(0.3, 1.0)),
            Box::new(ShewhartChart::new(1.0)),
            Box::new(SlidingZTest::new(5, 4.0)),
        ];
        for d in &mut bank {
            assert!(!d.update(f64::NAN), "{} alarmed on NaN", d.name());
            assert!(d.statistic().is_finite() || d.statistic() == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn parametric_cusum_rejects_non_increasing_shift() {
        let _ = ParametricCusum::new(1.0, 1.0, 1.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn sliding_z_rejects_zero_window() {
        let _ = SlidingZTest::new(0, 1.0);
    }
}
