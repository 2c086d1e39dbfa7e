//! The non-parametric CUSUM sequential change detector (§3.2).
//!
//! Given a normalized observation series `{X_n}` with mean `c < a` under
//! normal operation, define `X̃_n = X_n − a` (negative mean when all is
//! well) and accumulate only the positive excursions:
//!
//! ```text
//! y_n = (y_{n−1} + X̃_n)⁺ ,   y_0 = 0            (Eq. 2)
//! ```
//!
//! which equals the maximum continuous increment
//! `y_n = S_n − min_{k≤n} S_k` (Eq. 3, verified by a property test). The
//! decision rule is the indicator `d_N(y_n) = 1{y_n ≥ N}` (Eq. 4). The
//! offset `a` drains the statistic to zero during normal operation; a
//! flood gives `X̃_n` a positive mean and `y_n` climbs linearly until it
//! crosses the threshold.

use serde::{Deserialize, Serialize};

/// A snapshot of the detector state after one update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CusumState {
    /// Index of the observation that produced this state (0-based).
    pub n: u64,
    /// The test statistic `y_n`.
    pub statistic: f64,
    /// Whether `y_n ≥ N` at this observation.
    pub alarm: bool,
}

/// The non-parametric CUSUM detector.
///
/// ```
/// use syndog::NonParametricCusum;
///
/// let mut cusum = NonParametricCusum::new(0.35, 1.05);
/// // Normal: X_n below a keeps the statistic pinned at zero.
/// assert!(!cusum.update(0.05).alarm);
/// assert_eq!(cusum.statistic(), 0.0);
/// // Attack: X_n = 0.75 climbs by 0.4 per step, crossing 1.05 in 3 steps.
/// cusum.update(0.75);
/// cusum.update(0.75);
/// assert!(cusum.update(0.75).alarm);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NonParametricCusum {
    a: f64,
    threshold: f64,
    y: f64,
    n: u64,
    first_alarm: Option<u64>,
}

impl NonParametricCusum {
    /// Creates a detector with offset `a` (the upper bound on the normal
    /// mean of `X_n`) and flooding threshold `N`.
    ///
    /// The paper's universal parameters are `a = 0.35`, `N = 1.05`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not finite or `threshold` is not strictly positive.
    pub fn new(a: f64, threshold: f64) -> Self {
        assert!(a.is_finite(), "offset a must be finite");
        assert!(
            threshold > 0.0 && threshold.is_finite(),
            "threshold N must be positive and finite, got {threshold}"
        );
        NonParametricCusum {
            a,
            threshold,
            y: 0.0,
            n: 0,
            first_alarm: None,
        }
    }

    /// The offset parameter `a`.
    pub fn offset(&self) -> f64 {
        self.a
    }

    /// The flooding threshold `N`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The current test statistic `y_n`.
    pub fn statistic(&self) -> f64 {
        self.y
    }

    /// Number of observations consumed.
    pub fn observations(&self) -> u64 {
        self.n
    }

    /// Index of the first alarming observation, if any alarm has fired.
    pub fn first_alarm(&self) -> Option<u64> {
        self.first_alarm
    }

    /// Feeds one normalized observation `X_n` and returns the new state.
    ///
    /// Non-finite inputs are treated as zero excursion (the statistic is
    /// held), since a sniffer reporting NaN must not be able to force or
    /// mask an alarm.
    pub fn update(&mut self, x: f64) -> CusumState {
        let x_tilde = if x.is_finite() { x - self.a } else { 0.0 };
        self.y = (self.y + x_tilde).max(0.0);
        let index = self.n;
        self.n += 1;
        let alarm = self.y >= self.threshold;
        if alarm && self.first_alarm.is_none() {
            self.first_alarm = Some(index);
        }
        CusumState {
            n: index,
            statistic: self.y,
            alarm,
        }
    }

    /// Resets the statistic and alarm history; parameters are retained.
    pub fn reset(&mut self) {
        self.y = 0.0;
        self.n = 0;
        self.first_alarm = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistic_stays_zero_under_normal_mean() {
        let mut cusum = NonParametricCusum::new(0.35, 1.05);
        for _ in 0..100 {
            let state = cusum.update(0.1);
            assert_eq!(state.statistic, 0.0);
            assert!(!state.alarm);
        }
        assert_eq!(cusum.first_alarm(), None);
    }

    #[test]
    fn climbs_linearly_under_attack() {
        let mut cusum = NonParametricCusum::new(0.35, 1.05);
        // X̃ = 0.85 − 0.35 = 0.5 per step: y = 0.5, 1.0, 1.5 — the third
        // step crosses N = 1.05.
        for i in 0..2 {
            let state = cusum.update(0.85);
            assert!((state.statistic - (i + 1) as f64 * 0.5).abs() < 1e-12);
            assert!(!state.alarm);
        }
        assert!(cusum.update(0.85).alarm);
        assert_eq!(cusum.first_alarm(), Some(2));
    }

    #[test]
    fn alarm_exactly_at_threshold() {
        let mut cusum = NonParametricCusum::new(0.0, 1.0);
        let state = cusum.update(1.0);
        assert!(state.alarm, "y == N must alarm (d_N uses ≥)");
    }

    #[test]
    fn spike_then_quiet_drains_statistic() {
        let mut cusum = NonParametricCusum::new(0.35, 1.05);
        cusum.update(0.9); // y = 0.55
        assert!(cusum.statistic() > 0.0);
        for _ in 0..2 {
            cusum.update(0.0); // drains 0.35 per step
        }
        assert_eq!(cusum.statistic(), 0.0);
    }

    #[test]
    fn first_alarm_is_sticky_and_reset_clears_it() {
        let mut cusum = NonParametricCusum::new(0.0, 0.5);
        cusum.update(1.0);
        cusum.update(1.0);
        assert_eq!(cusum.first_alarm(), Some(0));
        cusum.reset();
        assert_eq!(cusum.first_alarm(), None);
        assert_eq!(cusum.statistic(), 0.0);
        assert_eq!(cusum.observations(), 0);
    }

    #[test]
    fn non_finite_inputs_hold_the_statistic() {
        let mut cusum = NonParametricCusum::new(0.35, 1.05);
        cusum.update(0.85);
        let before = cusum.statistic();
        cusum.update(f64::NAN);
        assert_eq!(cusum.statistic(), before);
        cusum.update(f64::INFINITY);
        assert_eq!(cusum.statistic(), before);
        assert!(!cusum.update(f64::NEG_INFINITY).alarm);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = NonParametricCusum::new(0.35, 0.0);
    }

    #[test]
    fn negative_offset_allowed_for_pre_offset_series() {
        // Callers that pre-subtract a may use a = 0; even negative a is
        // meaningful (it biases toward alarms) and must not be rejected.
        let mut cusum = NonParametricCusum::new(-0.1, 1.0);
        cusum.update(0.0);
        assert!((cusum.statistic() - 0.1).abs() < 1e-12);
    }
}
