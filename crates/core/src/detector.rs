//! The complete SYN-dog detection pipeline for one leaf router.
//!
//! Every observation period (`t0`, 20 s by default) the two sniffers report
//! a pair of counters; [`SynDogDetector::observe`] normalizes the
//! difference by the recursive SYN/ACK average and feeds the result to the
//! non-parametric CUSUM. The returned [`Detection`] carries every
//! intermediate quantity so experiments can plot the `y_n` dynamics the
//! paper shows in Figures 5, 7, 8 and 9.

use serde::{Deserialize, Serialize};

use crate::cusum::NonParametricCusum;
use crate::normalize::SynAckEstimator;

/// Counter pair reported by the sniffers for one observation period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PeriodCounts {
    /// Outgoing SYN segments counted by the outbound (first-mile) sniffer.
    pub syn: u64,
    /// Incoming SYN/ACK segments counted by the inbound (last-mile)
    /// sniffer.
    pub synack: u64,
}

impl PeriodCounts {
    /// The raw difference `Δ_n = SYN − SYN/ACK` (may be negative when
    /// retransmitted SYN/ACKs outnumber SYNs).
    pub fn delta(&self) -> f64 {
        self.syn as f64 - self.synack as f64
    }
}

/// Configuration of a SYN-dog agent.
///
/// Construct via [`SynDogConfig::paper_default`],
/// [`SynDogConfig::tuned_site_specific`], or the builder methods:
///
/// ```
/// use syndog::SynDogConfig;
///
/// let config = SynDogConfig::paper_default()
///     .with_alpha(0.95)
///     .with_observation_period_secs(10.0);
/// assert_eq!(config.offset, 0.35);
/// assert_eq!(config.observation_period_secs, 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynDogConfig {
    /// Observation period `t0` in seconds. Informational for the detector
    /// itself (counts arrive pre-aggregated) but used by the theory helpers
    /// to convert per-period quantities to rates.
    pub observation_period_secs: f64,
    /// Memory constant `α` of the SYN/ACK average estimator (Eq. 1).
    pub alpha: f64,
    /// Offset `a`: the upper bound of `E[X_n]` during normal operation.
    pub offset: f64,
    /// Lower bound `h` on the post-attack mean increase of `X_n`; the
    /// design rule is `h = 2a`. Used only for parameter derivation, not in
    /// the decision rule.
    pub min_attack_mean: f64,
    /// Flooding threshold `N`.
    pub threshold: f64,
}

impl SynDogConfig {
    /// The universal parameters the paper deploys everywhere:
    /// `t0 = 20 s`, `a = 0.35`, `h = 2a = 0.7`, `N = 1.05` (three-period
    /// target detection time), and `α = 0.9` for the estimator memory.
    pub fn paper_default() -> Self {
        SynDogConfig {
            observation_period_secs: 20.0,
            alpha: 0.9,
            offset: 0.35,
            min_attack_mean: 0.7,
            threshold: 1.05,
        }
    }

    /// The site-tuned parameters from §4.2.3 (`a = 0.2`, `N = 0.6`) that
    /// lower UNC's detectable rate from 37 to 15 SYN/s without additional
    /// false alarms.
    pub fn tuned_site_specific() -> Self {
        SynDogConfig {
            offset: 0.2,
            min_attack_mean: 0.4,
            threshold: 0.6,
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different estimator memory `α`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must lie in (0, 1), got {alpha}"
        );
        self.alpha = alpha;
        self
    }

    /// Returns a copy with a different offset `a`, keeping `h = 2a`.
    ///
    /// # Panics
    ///
    /// Panics unless `offset` is strictly positive.
    pub fn with_offset(mut self, offset: f64) -> Self {
        assert!(offset > 0.0, "offset must be positive, got {offset}");
        self.offset = offset;
        self.min_attack_mean = 2.0 * offset;
        self
    }

    /// Returns a copy with a different flooding threshold `N`.
    ///
    /// # Panics
    ///
    /// Panics unless `threshold` is strictly positive.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0,
            "threshold must be positive, got {threshold}"
        );
        self.threshold = threshold;
        self
    }

    /// Returns a copy with a different observation period `t0`.
    ///
    /// # Panics
    ///
    /// Panics unless `secs` is strictly positive.
    pub fn with_observation_period_secs(mut self, secs: f64) -> Self {
        assert!(
            secs > 0.0,
            "observation period must be positive, got {secs}"
        );
        self.observation_period_secs = secs;
        self
    }
}

impl Default for SynDogConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The outcome of one observation period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// 0-based observation period index.
    pub period: u64,
    /// Raw difference `Δ_n`.
    pub delta: f64,
    /// Estimate `K̄` *used for this period's normalization*.
    pub k_average: f64,
    /// Normalized difference `X_n = Δ_n / K̄`.
    pub x: f64,
    /// CUSUM statistic `y_n` after this period.
    pub statistic: f64,
    /// Whether `y_n ≥ N`: a SYN flooding source is active in the stub
    /// network.
    pub alarm: bool,
}

/// A SYN-dog agent's detection state.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynDogDetector {
    config: SynDogConfig,
    estimator: SynAckEstimator,
    cusum: NonParametricCusum,
}

impl SynDogDetector {
    /// Creates a detector from a configuration.
    pub fn new(config: SynDogConfig) -> Self {
        SynDogDetector {
            config,
            estimator: SynAckEstimator::new(config.alpha),
            cusum: NonParametricCusum::new(config.offset, config.threshold),
        }
    }

    /// The configuration this detector runs with.
    pub fn config(&self) -> &SynDogConfig {
        &self.config
    }

    /// The current SYN/ACK average estimate `K̄`, if seeded.
    pub fn k_average(&self) -> Option<f64> {
        self.estimator.average()
    }

    /// The current CUSUM statistic `y_n`.
    pub fn statistic(&self) -> f64 {
        self.cusum.statistic()
    }

    /// The period index at which the first alarm fired, if any.
    pub fn first_alarm_period(&self) -> Option<u64> {
        self.cusum.first_alarm()
    }

    /// Number of periods observed so far.
    pub fn periods_observed(&self) -> u64 {
        self.cusum.observations()
    }

    /// Consumes one period's counter pair and returns the full decision
    /// record.
    ///
    /// Normalization uses the estimate from *previous* periods (seeding
    /// from the first sample), then folds the current SYN/ACK count into
    /// the estimate — so a flood cannot dilute the very average it is being
    /// measured against within the same period.
    pub fn observe(&mut self, counts: PeriodCounts) -> Detection {
        let delta = counts.delta();
        // Seed on the first period: there is no history yet.
        if self.estimator.average().is_none() {
            self.estimator.update(counts.synack as f64);
        }
        let k_average = self
            .estimator
            .average()
            .expect("estimator seeded above")
            .max(1.0);
        let x = self.estimator.normalize(delta);
        let state = self.cusum.update(x);
        self.estimator.update(counts.synack as f64);
        Detection {
            period: state.n,
            delta,
            k_average,
            x,
            statistic: state.statistic,
            alarm: state.alarm,
        }
    }

    /// Resets all running state (estimate, statistic, alarms); the
    /// configuration is retained.
    pub fn reset(&mut self) {
        self.estimator.reset();
        self.cusum.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_period() -> PeriodCounts {
        PeriodCounts {
            syn: 2150,
            synack: 2100,
        }
    }

    #[test]
    fn delta_may_be_negative() {
        let counts = PeriodCounts {
            syn: 10,
            synack: 15,
        };
        assert_eq!(counts.delta(), -5.0);
    }

    #[test]
    fn no_alarm_on_steady_normal_traffic() {
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
        for _ in 0..500 {
            let d = dog.observe(normal_period());
            assert!(!d.alarm);
            assert!(d.statistic < 0.1);
        }
        assert_eq!(dog.first_alarm_period(), None);
    }

    #[test]
    fn constant_flood_crosses_threshold_at_predicted_period() {
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
        for _ in 0..50 {
            dog.observe(normal_period());
        }
        // Flood adds 80 SYN/s * 20 s = 1600 SYNs per period against
        // K ≈ 2100: X ≈ 0.787, growth ≈ 0.437 + small c per period,
        // so the third flood period should alarm (ceil(1.05/0.46) = 3).
        let mut first_alarm = None;
        for i in 0..10 {
            let d = dog.observe(PeriodCounts {
                syn: 2150 + 1600,
                synack: 2100,
            });
            if d.alarm {
                first_alarm = Some(i);
                break;
            }
        }
        assert_eq!(first_alarm, Some(2));
    }

    #[test]
    fn detection_record_is_internally_consistent() {
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
        dog.observe(normal_period());
        let d = dog.observe(PeriodCounts {
            syn: 3000,
            synack: 2000,
        });
        assert_eq!(d.delta, 1000.0);
        assert!((d.x - d.delta / d.k_average).abs() < 1e-12);
        assert_eq!(d.period, 1);
    }

    #[test]
    fn normalization_uses_pre_attack_average() {
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default().with_alpha(0.9));
        dog.observe(PeriodCounts {
            syn: 1000,
            synack: 1000,
        });
        // Attack period: the K used must still be 1000, not diluted by the
        // current period's synack count.
        let d = dog.observe(PeriodCounts {
            syn: 5000,
            synack: 1000,
        });
        assert_eq!(d.k_average, 1000.0);
    }

    #[test]
    fn site_independence_of_normalized_series() {
        // The same *relative* flood produces the same statistic at a large
        // and a small site — the whole point of normalization.
        let mut large = SynDogDetector::new(SynDogConfig::paper_default());
        let mut small = SynDogDetector::new(SynDogConfig::paper_default());
        for _ in 0..20 {
            large.observe(PeriodCounts {
                syn: 20_000,
                synack: 20_000,
            });
            small.observe(PeriodCounts {
                syn: 100,
                synack: 100,
            });
        }
        let dl = large.observe(PeriodCounts {
            syn: 34_000,
            synack: 20_000,
        });
        let ds = small.observe(PeriodCounts {
            syn: 170,
            synack: 100,
        });
        assert!((dl.x - ds.x).abs() < 1e-9);
        assert!((dl.statistic - ds.statistic).abs() < 1e-9);
    }

    #[test]
    fn tuned_config_detects_smaller_floods() {
        let run = |config: SynDogConfig| -> Option<u64> {
            let mut dog = SynDogDetector::new(config);
            // Normal operation with a realistic residual difference
            // c ≈ 150/2100 ≈ 0.071 (SYNs dropped without SYN/ACKs).
            for _ in 0..50 {
                dog.observe(PeriodCounts {
                    syn: 2250,
                    synack: 2100,
                });
            }
            // 15 SYN/s * 20 s = 300 extra SYNs per period: X ≈ 0.214,
            // below the default a = 0.35 but above the tuned a = 0.2.
            for _ in 0..60 {
                let d = dog.observe(PeriodCounts {
                    syn: 2550,
                    synack: 2100,
                });
                if d.alarm {
                    return Some(d.period);
                }
            }
            None
        };
        assert_eq!(
            run(SynDogConfig::paper_default()),
            None,
            "default params miss 15 SYN/s"
        );
        assert!(
            run(SynDogConfig::tuned_site_specific()).is_some(),
            "tuned params catch it"
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
        dog.observe(PeriodCounts {
            syn: 9000,
            synack: 10,
        });
        dog.reset();
        assert_eq!(dog.statistic(), 0.0);
        assert_eq!(dog.k_average(), None);
        assert_eq!(dog.periods_observed(), 0);
    }

    #[test]
    fn config_builders_validate() {
        let config = SynDogConfig::paper_default().with_offset(0.2);
        assert_eq!(config.min_attack_mean, 0.4);
        assert_eq!(
            SynDogConfig::paper_default().with_threshold(2.0).threshold,
            2.0
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_observation_period_rejected() {
        let _ = SynDogConfig::paper_default().with_observation_period_secs(0.0);
    }

    #[test]
    fn quiet_network_with_tiny_flood_still_alarm_free_then_alarms() {
        // An almost idle network: K floors at 1.0, so even single-digit
        // unanswered SYNs are visible, but genuine silence never alarms.
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
        for _ in 0..100 {
            let d = dog.observe(PeriodCounts { syn: 0, synack: 0 });
            assert!(!d.alarm);
        }
        let mut alarmed = false;
        for _ in 0..5 {
            alarmed |= dog.observe(PeriodCounts { syn: 3, synack: 0 }).alarm;
        }
        assert!(alarmed, "unanswered SYNs on an idle network must alarm");
    }
}
