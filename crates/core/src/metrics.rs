//! Detection-quality metrics for the evaluation harness.
//!
//! Tables 2 and 3 of the paper report, per flooding rate, a *detection
//! probability* and a *mean detection time* (in observation periods) over
//! repeated trials with randomized attack start times. This module holds
//! the per-trial record and the aggregation, plus false-alarm accounting
//! for clean (attack-free) runs.

use serde::{Deserialize, Serialize};

/// The result of one attack trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Observation period (0-based, relative to trace start) at which the
    /// attack began.
    pub attack_start_period: u64,
    /// Period of the first alarm at or after the attack start, if the
    /// attack was detected before the trial ended.
    pub detected_at_period: Option<u64>,
    /// Number of alarm periods strictly before the attack started
    /// (false alarms for this trial).
    pub false_alarms_before_attack: u64,
}

impl TrialOutcome {
    /// Detection delay in periods (first alarm − attack start), if
    /// detected.
    pub fn delay_periods(&self) -> Option<u64> {
        self.detected_at_period
            .map(|at| at.saturating_sub(self.attack_start_period))
    }
}

/// Aggregated detection performance over many trials — one row of Table 2
/// or Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionSummary {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Fraction of trials in which the attack was detected.
    pub detection_probability: f64,
    /// Mean detection delay in observation periods, over *detected* trials
    /// (`None` if nothing was detected).
    pub mean_delay_periods: Option<f64>,
    /// Largest delay among detected trials.
    pub max_delay_periods: Option<u64>,
    /// Total false alarms across all trials.
    pub false_alarms: u64,
}

impl DetectionSummary {
    /// Aggregates trial outcomes.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: a summary of nothing is a caller bug.
    pub fn from_trials(trials: &[TrialOutcome]) -> Self {
        assert!(!trials.is_empty(), "cannot summarize zero trials");
        let detected: Vec<u64> = trials
            .iter()
            .filter_map(TrialOutcome::delay_periods)
            .collect();
        let mean_delay = if detected.is_empty() {
            None
        } else {
            Some(detected.iter().sum::<u64>() as f64 / detected.len() as f64)
        };
        DetectionSummary {
            trials: trials.len(),
            detection_probability: detected.len() as f64 / trials.len() as f64,
            mean_delay_periods: mean_delay,
            max_delay_periods: detected.iter().copied().max(),
            false_alarms: trials.iter().map(|t| t.false_alarms_before_attack).sum(),
        }
    }
}

/// False-alarm accounting for a clean (attack-free) run — the paper's
/// Figure 5 check that `y_n` stays far below `N` on normal traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FalseAlarmReport {
    /// Number of observation periods examined.
    pub periods: usize,
    /// Periods at which the detector alarmed.
    pub alarm_periods: Vec<u64>,
    /// The largest statistic value seen (the "maximal spike").
    pub max_statistic: f64,
    /// The flooding threshold the statistic was compared against.
    pub threshold: f64,
}

impl FalseAlarmReport {
    /// Builds a report from a clean run's per-period `(statistic, alarm)`
    /// records.
    pub fn from_run(records: impl IntoIterator<Item = (f64, bool)>, threshold: f64) -> Self {
        let mut periods = 0;
        let mut alarm_periods = Vec::new();
        let mut max_statistic = 0.0f64;
        for (statistic, alarm) in records {
            if alarm {
                alarm_periods.push(periods as u64);
            }
            max_statistic = max_statistic.max(statistic);
            periods += 1;
        }
        FalseAlarmReport {
            periods,
            alarm_periods,
            max_statistic,
            threshold,
        }
    }

    /// Number of false alarms.
    pub fn count(&self) -> usize {
        self.alarm_periods.len()
    }

    /// Headroom between the worst spike and the threshold, as a fraction of
    /// the threshold (1.0 = spike never left zero; 0.0 = spike touched the
    /// threshold).
    pub fn headroom(&self) -> f64 {
        (1.0 - self.max_statistic / self.threshold).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_delay_arithmetic() {
        let t = TrialOutcome {
            attack_start_period: 10,
            detected_at_period: Some(14),
            false_alarms_before_attack: 0,
        };
        assert_eq!(t.delay_periods(), Some(4));
        let missed = TrialOutcome {
            attack_start_period: 10,
            detected_at_period: None,
            false_alarms_before_attack: 1,
        };
        assert_eq!(missed.delay_periods(), None);
    }

    #[test]
    fn summary_mixes_detected_and_missed() {
        let trials = vec![
            TrialOutcome {
                attack_start_period: 5,
                detected_at_period: Some(7),
                false_alarms_before_attack: 0,
            },
            TrialOutcome {
                attack_start_period: 9,
                detected_at_period: Some(15),
                false_alarms_before_attack: 0,
            },
            TrialOutcome {
                attack_start_period: 3,
                detected_at_period: None,
                false_alarms_before_attack: 0,
            },
            TrialOutcome {
                attack_start_period: 6,
                detected_at_period: Some(8),
                false_alarms_before_attack: 2,
            },
        ];
        let summary = DetectionSummary::from_trials(&trials);
        assert_eq!(summary.trials, 4);
        assert!((summary.detection_probability - 0.75).abs() < 1e-12);
        assert!((summary.mean_delay_periods.unwrap() - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(summary.max_delay_periods, Some(6));
        assert_eq!(summary.false_alarms, 2);
    }

    #[test]
    fn summary_of_all_missed() {
        let trials = vec![TrialOutcome {
            attack_start_period: 0,
            detected_at_period: None,
            false_alarms_before_attack: 0,
        }];
        let summary = DetectionSummary::from_trials(&trials);
        assert_eq!(summary.detection_probability, 0.0);
        assert_eq!(summary.mean_delay_periods, None);
        assert_eq!(summary.max_delay_periods, None);
    }

    #[test]
    #[should_panic(expected = "zero trials")]
    fn summary_of_nothing_panics() {
        let _ = DetectionSummary::from_trials(&[]);
    }

    #[test]
    fn clean_run_report() {
        let records = (0..100).map(|i| (0.01 * (i % 5) as f64, false));
        let report = FalseAlarmReport::from_run(records, 1.05);
        assert_eq!(report.count(), 0);
        assert_eq!(report.periods, 100);
        assert!((report.max_statistic - 0.04).abs() < 1e-12);
        assert!(report.headroom() > 0.95);
    }

    #[test]
    fn alarming_run_report() {
        let records = vec![
            (0.0, false),
            (1.1, true),
            (0.0, false),
            (1.2, true),
            (1.3, true),
        ];
        let report = FalseAlarmReport::from_run(records, 1.05);
        assert_eq!(report.count(), 3);
        assert_eq!(report.alarm_periods, vec![1, 3, 4]);
        assert_eq!(report.headroom(), 0.0);
    }
}
