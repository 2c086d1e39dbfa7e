//! Extension: SYN–FIN pair detection — the companion mechanism.
//!
//! The SYN-dog authors' companion work (*Detecting SYN Flooding Attacks*,
//! INFOCOM 2002) applies the same non-parametric CUSUM to a different
//! protocol invariant: every connection that opens (SYN) eventually closes
//! (FIN or RST), so the per-period difference `SYN − FIN` is bounded under
//! normal operation and diverges under flooding. The SYN–FIN pairing is
//! observable at either end of a path and at *last-mile* routers, where
//! SYN/ACKs of inbound-initiated connections are not visible.
//!
//! Differences from the SYN–SYN/ACK pairing (§3.1 of SYN-dog):
//!
//! - the FIN arrives a whole connection lifetime after its SYN, not one
//!   RTT, so the difference series carries *timing skew* proportional to
//!   the connection-arrival derivative — burstier input, noisier series;
//! - RSTs also terminate connections; following the companion paper, a
//!   fraction of observed RSTs is counted as closes (three quarters of
//!   RSTs in their measurements correspond to genuine aborts).
//!
//! This module reuses SYN-dog's estimator and CUSUM unchanged — the point
//! of the non-parametric design is exactly that the decision rule does not
//! care which bounded-mean series it watches.

use serde::{Deserialize, Serialize};

use crate::cusum::NonParametricCusum;
use crate::detector::SynDogConfig;
use crate::normalize::SynAckEstimator;

/// Counter triple for one observation period at a SYN–FIN detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynFinCounts {
    /// SYN segments observed (the opens).
    pub syn: u64,
    /// FIN segments observed (the closes).
    pub fin: u64,
    /// RST segments observed (partial closes; weighted by
    /// [`FinPairDetector::RST_WEIGHT`]).
    pub rst: u64,
}

/// Per-period output of the SYN–FIN detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinPairDetection {
    /// 0-based observation period index.
    pub period: u64,
    /// Weighted difference `SYN − FIN − 0.75·RST`.
    pub delta: f64,
    /// Normalized difference.
    pub x: f64,
    /// CUSUM statistic after this period.
    pub statistic: f64,
    /// Whether the statistic crossed the threshold.
    pub alarm: bool,
}

/// The SYN–FIN pair flooding detector.
///
/// ```
/// use syndog::{DetectorKind, PeriodSignals, SynDogConfig};
///
/// let mut fds = DetectorKind::FinPair.build(SynDogConfig::paper_default());
/// let normal = PeriodSignals { syn: 500, synack: 0, fin: 470, rst: 20 };
/// for _ in 0..20 {
///     assert!(!fds.observe(normal).alarm);
/// }
/// // Flood: opens with no closes.
/// let flood = PeriodSignals { syn: 1100, ..normal };
/// let mut alarmed = false;
/// for _ in 0..6 {
///     alarmed |= fds.observe(flood).alarm;
/// }
/// assert!(alarmed);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinPairDetector {
    config: SynDogConfig,
    estimator: SynAckEstimator,
    cusum: NonParametricCusum,
}

impl FinPairDetector {
    /// Weight applied to RSTs when counting closes, after the companion
    /// paper's measurement that roughly three quarters of RSTs abort a
    /// live connection.
    pub const RST_WEIGHT: f64 = 0.75;

    /// Creates a detector; the configuration is shared with
    /// [`SynDogDetector`](crate::SynDogDetector) (same `a`, `N`, `α`).
    pub fn new(config: SynDogConfig) -> Self {
        FinPairDetector {
            config,
            estimator: SynAckEstimator::new(config.alpha),
            cusum: NonParametricCusum::new(config.offset, config.threshold),
        }
    }

    /// The effective close count for a period.
    pub fn weighted_closes(counts: &SynFinCounts) -> f64 {
        counts.fin as f64 + Self::RST_WEIGHT * counts.rst as f64
    }

    /// The configuration this detector runs with.
    pub fn config(&self) -> &SynDogConfig {
        &self.config
    }

    /// The recursive weighted-closes average the normalization divides by,
    /// if seeded.
    pub fn closes_average(&self) -> Option<f64> {
        self.estimator.average()
    }

    /// Number of periods observed so far.
    pub fn periods_observed(&self) -> u64 {
        self.cusum.observations()
    }

    /// Current CUSUM statistic.
    pub fn statistic(&self) -> f64 {
        self.cusum.statistic()
    }

    /// First alarming period, if any.
    pub fn first_alarm_period(&self) -> Option<u64> {
        self.cusum.first_alarm()
    }

    /// Consumes one period's counters.
    pub fn observe(&mut self, counts: SynFinCounts) -> FinPairDetection {
        let closes = Self::weighted_closes(&counts);
        let delta = counts.syn as f64 - closes;
        if self.estimator.average().is_none() {
            self.estimator.update(closes);
        }
        let x = self.estimator.normalize(delta);
        let state = self.cusum.update(x);
        self.estimator.update(closes);
        FinPairDetection {
            period: state.n,
            delta,
            x,
            statistic: state.statistic,
            alarm: state.alarm,
        }
    }

    /// Resets all running state.
    pub fn reset(&mut self) {
        self.estimator.reset();
        self.cusum.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced(syn: u64) -> SynFinCounts {
        // 94% of opens close with FIN, 8% of opens RST (0.75-weighted):
        // closes ≈ syn, small positive residual.
        SynFinCounts {
            syn,
            fin: syn * 94 / 100,
            rst: syn * 8 / 100,
        }
    }

    #[test]
    fn steady_traffic_never_alarms() {
        let mut fds = FinPairDetector::new(SynDogConfig::paper_default());
        for _ in 0..500 {
            let d = fds.observe(balanced(800));
            assert!(!d.alarm);
            assert!(d.statistic < 0.2);
        }
    }

    #[test]
    fn rst_weighting_matches_constant() {
        let counts = SynFinCounts {
            syn: 0,
            fin: 10,
            rst: 4,
        };
        assert!((FinPairDetector::weighted_closes(&counts) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn flood_opens_without_closes_alarm() {
        let mut fds = FinPairDetector::new(SynDogConfig::paper_default());
        for _ in 0..30 {
            fds.observe(balanced(800));
        }
        let mut first = None;
        for i in 0..10 {
            let d = fds.observe(SynFinCounts {
                syn: 800 + 700,
                ..balanced(800)
            });
            if d.alarm {
                first = Some(i);
                break;
            }
        }
        let delay = first.expect("flood must alarm");
        assert!(delay <= 3, "alarm after {delay} periods");
    }

    #[test]
    fn fin_flood_does_not_alarm() {
        // An excess of closes (e.g. mass disconnect) drives the statistic
        // down, not up: only open-without-close is an attack signature.
        let mut fds = FinPairDetector::new(SynDogConfig::paper_default());
        for _ in 0..20 {
            fds.observe(balanced(800));
        }
        for _ in 0..20 {
            let d = fds.observe(SynFinCounts {
                syn: 800,
                fin: 2000,
                rst: 0,
            });
            assert!(!d.alarm);
            assert_eq!(d.statistic, 0.0);
        }
    }

    #[test]
    fn shares_scale_invariance_with_syndog() {
        let mut small = FinPairDetector::new(SynDogConfig::paper_default());
        let mut large = FinPairDetector::new(SynDogConfig::paper_default());
        for _ in 0..10 {
            let ds = small.observe(SynFinCounts {
                syn: 100,
                fin: 93,
                rst: 4,
            });
            let dl = large.observe(SynFinCounts {
                syn: 10_000,
                fin: 9_300,
                rst: 400,
            });
            assert!((ds.x - dl.x).abs() < 1e-9);
            assert_eq!(ds.alarm, dl.alarm);
        }
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut fds = FinPairDetector::new(SynDogConfig::paper_default());
        fds.observe(SynFinCounts {
            syn: 5000,
            fin: 0,
            rst: 0,
        });
        assert!(fds.statistic() > 0.0);
        fds.reset();
        assert_eq!(fds.statistic(), 0.0);
        assert_eq!(fds.first_alarm_period(), None);
    }
}
