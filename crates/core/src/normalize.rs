//! The recursive SYN/ACK average estimator `K̄` (Eq. 1) and the
//! normalization that makes SYN-dog site-independent.
//!
//! The raw per-period difference `Δ_n = SYN_n − SYN/ACK_n` scales with the
//! size of the stub network, so no single threshold could work at both a
//! 35,000-user campus and a small department. Dividing by the estimated
//! average SYN/ACK count per period,
//!
//! ```text
//! K̄(n) = α · K̄(n−1) + (1 − α) · SYNACK(n)        (Eq. 1)
//! X_n  = Δ_n / K̄
//! ```
//!
//! yields a dimensionless series whose dynamics "are solely the consequence
//! of the TCP protocol specification" — the property that lets the paper
//! fix `a = 0.35`, `N = 1.05` universally.

use serde::{Deserialize, Serialize};

/// Exponentially-weighted recursive estimator of the average number of
/// SYN/ACKs per observation period.
///
/// The [`SynDogDetector`](crate::SynDogDetector) runs one and reports its
/// estimate:
///
/// ```
/// use syndog::{PeriodCounts, SynDogConfig, SynDogDetector};
///
/// let mut dog = SynDogDetector::new(SynDogConfig::paper_default().with_alpha(0.9));
/// dog.observe(PeriodCounts { syn: 100, synack: 100 });
/// assert_eq!(dog.k_average(), Some(100.0)); // first sample seeds the estimate
/// dog.observe(PeriodCounts { syn: 200, synack: 200 });
/// assert_eq!(dog.k_average(), Some(110.0)); // 0.9·100 + 0.1·200
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynAckEstimator {
    alpha: f64,
    average: Option<f64>,
}

impl SynAckEstimator {
    /// Creates an estimator with memory constant `alpha` strictly between
    /// 0 and 1 (the paper's `α`); larger values remember more history.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must lie strictly between 0 and 1, got {alpha}"
        );
        SynAckEstimator {
            alpha,
            average: None,
        }
    }

    /// The current estimate `K̄`, or `None` before the first sample.
    pub fn average(&self) -> Option<f64> {
        self.average
    }

    /// Feeds the SYN/ACK count of one observation period and returns the
    /// updated estimate. The first sample seeds the estimate directly.
    ///
    /// Negative or non-finite inputs are clamped to zero: a counter cannot
    /// be negative, and a corrupt report must not poison the estimate.
    pub fn update(&mut self, synack: f64) -> f64 {
        let sample = if synack.is_finite() {
            synack.max(0.0)
        } else {
            0.0
        };
        let next = match self.average {
            None => sample,
            Some(prev) => self.alpha * prev + (1.0 - self.alpha) * sample,
        };
        self.average = Some(next);
        next
    }

    /// Clears the estimate, as on agent restart.
    pub fn reset(&mut self) {
        self.average = None;
    }

    /// Normalizes a raw difference by the current estimate:
    /// `X_n = delta / max(K̄, floor)`.
    ///
    /// The floor (1.0) guards the idle-network case: with essentially no
    /// SYN/ACK traffic, dividing by a vanishing `K̄` would turn a handful
    /// of unanswered SYNs into a huge `X_n` and a false alarm.
    pub fn normalize(&self, delta: f64) -> f64 {
        let k = self.average.unwrap_or(0.0).max(1.0);
        delta / k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_seeds_estimate() {
        let mut k = SynAckEstimator::new(0.5);
        assert_eq!(k.average(), None);
        assert_eq!(k.update(40.0), 40.0);
        assert_eq!(k.average(), Some(40.0));
    }

    #[test]
    fn recursion_matches_eq1() {
        let mut k = SynAckEstimator::new(0.8);
        k.update(100.0);
        // K(n) = 0.8*100 + 0.2*50 = 90
        assert!((k.update(50.0) - 90.0).abs() < 1e-12);
        // K(n) = 0.8*90 + 0.2*150 = 102
        assert!((k.update(150.0) - 102.0).abs() < 1e-12);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut k = SynAckEstimator::new(0.9);
        k.update(10.0);
        for _ in 0..200 {
            k.update(500.0);
        }
        assert!((k.average().unwrap() - 500.0).abs() < 1.0);
    }

    #[test]
    fn larger_alpha_adapts_more_slowly() {
        let mut slow = SynAckEstimator::new(0.99);
        let mut fast = SynAckEstimator::new(0.5);
        slow.update(100.0);
        fast.update(100.0);
        slow.update(0.0);
        fast.update(0.0);
        assert!(slow.average().unwrap() > fast.average().unwrap());
    }

    #[test]
    fn garbage_inputs_clamped() {
        let mut k = SynAckEstimator::new(0.9);
        k.update(f64::NAN);
        assert_eq!(k.average(), Some(0.0));
        k.reset();
        k.update(-50.0);
        assert_eq!(k.average(), Some(0.0));
        k.update(f64::INFINITY);
        assert_eq!(k.average(), Some(0.0));
    }

    #[test]
    fn normalize_divides_by_estimate() {
        let mut k = SynAckEstimator::new(0.9);
        k.update(2000.0);
        assert!((k.normalize(700.0) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn normalize_floors_small_estimates() {
        let mut k = SynAckEstimator::new(0.9);
        k.update(0.0);
        // Without the floor this would divide by zero.
        assert_eq!(k.normalize(5.0), 5.0);
        let empty = SynAckEstimator::new(0.9);
        assert_eq!(empty.normalize(3.0), 3.0);
    }

    #[test]
    fn reset_forgets_history() {
        let mut k = SynAckEstimator::new(0.9);
        k.update(1000.0);
        k.reset();
        assert_eq!(k.average(), None);
        assert_eq!(k.update(10.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "strictly between")]
    fn alpha_one_rejected() {
        let _ = SynAckEstimator::new(1.0);
    }

    #[test]
    #[should_panic(expected = "strictly between")]
    fn alpha_zero_rejected() {
        let _ = SynAckEstimator::new(0.0);
    }
}
