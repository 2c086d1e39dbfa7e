//! Pluggable detection strategies behind one [`AnyDetector`] value.
//!
//! The paper's SYN−SYN/ACK CUSUM is one point in the change-detection
//! design space the review literature (arXiv 1202.1761) maps out. This
//! module makes the whole pipeline strategy-agnostic so the alternatives
//! can run on the same sniffers, checkpoints and fleet harness:
//!
//! | kind        | statistic watched                        | reference |
//! |-------------|------------------------------------------|-----------|
//! | `syndog`    | normalized SYN − SYN/ACK, CUSUM          | the paper |
//! | `syn-cusum` | normalized SYN-count excursion, CUSUM    | Zhang et al., arXiv 1212.5129 |
//! | `ewma`      | SYN count vs. adaptive EWMA threshold    | Siris & Papagalou |
//! | `fin-pair`  | normalized SYN − FIN(−¾RST), CUSUM       | companion INFOCOM 2002 work |
//!
//! Every strategy consumes one [`PeriodSignals`] per observation period
//! and returns the same [`Detection`] record, so agents, telemetry and the
//! bake-off harness treat them interchangeably. [`AnyDetector`] is the
//! value-level strategy choice: a serializable tagged union that the
//! checkpoint envelope carries.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize, Value};

use crate::cusum::NonParametricCusum;
use crate::detector::{Detection, PeriodCounts, SynDogConfig, SynDogDetector};
use crate::fin_pair::{FinPairDetector, SynFinCounts};
use crate::normalize::SynAckEstimator;

/// Every per-period control-segment count a sniffer pair can report: the
/// superset of what any one strategy consumes. [`PeriodCounts`] covers the
/// paper detector; `fin`/`rst` feed the SYN–FIN pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PeriodSignals {
    /// Outgoing SYN segments (outbound sniffer).
    pub syn: u64,
    /// Incoming SYN/ACK segments (inbound sniffer).
    pub synack: u64,
    /// Outgoing FIN segments (outbound sniffer).
    pub fin: u64,
    /// Outgoing RST segments (outbound sniffer).
    pub rst: u64,
}

impl PeriodSignals {
    /// The SYN / SYN-ACK pair the paper detector consumes.
    pub fn counts(&self) -> PeriodCounts {
        PeriodCounts {
            syn: self.syn,
            synack: self.synack,
        }
    }

    /// The SYN / FIN / RST triple the SYN–FIN detector consumes.
    pub fn syn_fin(&self) -> SynFinCounts {
        SynFinCounts {
            syn: self.syn,
            fin: self.fin,
            rst: self.rst,
        }
    }
}

impl From<PeriodCounts> for PeriodSignals {
    fn from(counts: PeriodCounts) -> Self {
        PeriodSignals {
            syn: counts.syn,
            synack: counts.synack,
            fin: 0,
            rst: 0,
        }
    }
}

/// The built-in strategy names, as selected by `--detector`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DetectorKind {
    /// The paper's SYN − SYN/ACK CUSUM ([`SynDogDetector`]).
    #[default]
    Syndog,
    /// Zhang's SYN-count CUSUM ([`SynCountCusum`]).
    SynCusum,
    /// Adaptive-threshold EWMA on SYN counts ([`EwmaDetector`]).
    Ewma,
    /// SYN − FIN(/RST) pairing ([`FinPairDetector`]).
    FinPair,
}

impl DetectorKind {
    /// Every strategy, in presentation order.
    pub const ALL: [DetectorKind; 4] = [
        DetectorKind::Syndog,
        DetectorKind::SynCusum,
        DetectorKind::Ewma,
        DetectorKind::FinPair,
    ];

    /// The canonical CLI / telemetry-label name.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Syndog => "syndog",
            DetectorKind::SynCusum => "syn-cusum",
            DetectorKind::Ewma => "ewma",
            DetectorKind::FinPair => "fin-pair",
        }
    }

    /// Builds a fresh detector of this kind.
    pub fn build(self, config: SynDogConfig) -> AnyDetector {
        match self {
            DetectorKind::Syndog => AnyDetector::Syndog(SynDogDetector::new(config)),
            DetectorKind::SynCusum => AnyDetector::SynCusum(SynCountCusum::new(config)),
            DetectorKind::Ewma => AnyDetector::Ewma(EwmaDetector::new(config)),
            DetectorKind::FinPair => AnyDetector::FinPair(FinPairDetector::new(config)),
        }
    }
}

impl fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DetectorKind {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        DetectorKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = DetectorKind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown detector: {name} ({})", names.join(", "))
            })
    }
}

/// Zhang's SYN-count CUSUM (arXiv 1212.5129): the same non-parametric
/// recursion as the paper detector, but applied to the SYN count's own
/// excursion above its recursive mean instead of the SYN − SYN/ACK
/// difference. It needs no reverse-path visibility at all, but pays for it
/// against flash crowds (legitimate SYN surges look identical) and against
/// slow ramps (the mean learns the flood).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynCountCusum {
    config: SynDogConfig,
    estimator: SynAckEstimator,
    cusum: NonParametricCusum,
}

impl SynCountCusum {
    /// Creates a detector; `alpha`, `offset` and `threshold` keep the
    /// meanings they have for the paper detector, applied to the SYN-count
    /// series.
    pub fn new(config: SynDogConfig) -> Self {
        SynCountCusum {
            config,
            estimator: SynAckEstimator::new(config.alpha),
            cusum: NonParametricCusum::new(config.offset, config.threshold),
        }
    }

    /// The configuration this detector runs with.
    pub fn config(&self) -> &SynDogConfig {
        &self.config
    }

    /// The recursive SYN-count mean, if seeded.
    pub fn syn_average(&self) -> Option<f64> {
        self.estimator.average()
    }

    /// Consumes one period's SYN count.
    ///
    /// Like the paper detector, normalization uses the mean from previous
    /// periods (seeding from the first sample) and only then folds the
    /// current count in, so a flood cannot dilute the baseline it is
    /// measured against within the same period.
    pub fn observe(&mut self, signals: PeriodSignals) -> Detection {
        let syn = signals.syn as f64;
        if self.estimator.average().is_none() {
            self.estimator.update(syn);
        }
        let mean = self
            .estimator
            .average()
            .expect("estimator seeded above")
            .max(1.0);
        let delta = syn - mean;
        let x = self.estimator.normalize(delta);
        let state = self.cusum.update(x);
        self.estimator.update(syn);
        Detection {
            period: state.n,
            delta,
            k_average: mean,
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

/// Adaptive-threshold EWMA on SYN counts (Siris & Papagalou's classic
/// baseline): alarm when the period's SYN count exceeds `(1 + k)` times
/// the recursive mean for [`EwmaDetector::PERSISTENCE`] consecutive
/// periods. The config's `threshold` field is reinterpreted as the margin
/// `k`, and `alpha` as the mean's memory. Cheap and self-tuning, but the
/// mean keeps learning during an attack, so sustained floods eventually
/// look normal — the weakness the bake-off quantifies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EwmaDetector {
    config: SynDogConfig,
    estimator: SynAckEstimator,
    streak: u64,
    periods: u64,
    first_alarm: Option<u64>,
}

impl EwmaDetector {
    /// Consecutive over-threshold periods required before alarming, which
    /// keeps single-period bursts from tripping the alarm.
    pub const PERSISTENCE: u64 = 2;

    /// Creates a detector. `config.threshold` is the margin `k` in the
    /// `syn > (1 + k)·mean` rule; `config.alpha` the mean's memory.
    pub fn new(config: SynDogConfig) -> Self {
        EwmaDetector {
            config,
            estimator: SynAckEstimator::new(config.alpha),
            streak: 0,
            periods: 0,
            first_alarm: None,
        }
    }

    /// The configuration this detector runs with.
    pub fn config(&self) -> &SynDogConfig {
        &self.config
    }

    /// The recursive SYN-count mean, if seeded.
    pub fn syn_average(&self) -> Option<f64> {
        self.estimator.average()
    }

    /// Current over-threshold streak length.
    pub fn streak(&self) -> u64 {
        self.streak
    }

    /// Consumes one period's SYN count.
    ///
    /// The reported statistic is the ratio `syn / ((1 + k)·mean)`, so 1.0
    /// marks the adaptive threshold: comparable across sites the way the
    /// CUSUM statistics are, and sweepable for the ROC harness.
    pub fn observe(&mut self, signals: PeriodSignals) -> Detection {
        let syn = signals.syn as f64;
        if self.estimator.average().is_none() {
            self.estimator.update(syn);
        }
        let mean = self
            .estimator
            .average()
            .expect("estimator seeded above")
            .max(1.0);
        let delta = syn - mean;
        let x = self.estimator.normalize(delta);
        let margin = self.config.threshold;
        let statistic = syn / ((1.0 + margin) * mean);
        if statistic >= 1.0 {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        let alarm = self.streak >= Self::PERSISTENCE;
        let period = self.periods;
        if alarm && self.first_alarm.is_none() {
            self.first_alarm = Some(period);
        }
        self.estimator.update(syn);
        self.periods += 1;
        Detection {
            period,
            delta,
            k_average: mean,
            x,
            statistic,
            alarm,
        }
    }

    /// Resets all running state.
    pub fn reset(&mut self) {
        self.estimator.reset();
        self.streak = 0;
        self.periods = 0;
        self.first_alarm = None;
    }
}

/// A detection strategy chosen at runtime, with plain-enum dispatch so
/// agents, fleet specs and checkpoints stay `Clone + PartialEq +
/// Serialize`. A strategy is a pure function of the [`PeriodSignals`]
/// sequence it has observed: plain serializable state, no clocks, no
/// randomness — the properties the checkpoint envelope and the
/// deterministic fleet runner rely on.
///
/// Serialized form is externally tagged by the strategy's canonical name
/// (`{"syndog": {...}}`), and deserialization accepts only that form.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyDetector {
    /// The paper's SYN − SYN/ACK CUSUM.
    Syndog(SynDogDetector),
    /// Zhang's SYN-count CUSUM.
    SynCusum(SynCountCusum),
    /// Adaptive-threshold EWMA.
    Ewma(EwmaDetector),
    /// SYN − FIN(/RST) pairing.
    FinPair(FinPairDetector),
}

impl AnyDetector {
    /// Builds a fresh detector of the given kind (alias of
    /// [`DetectorKind::build`]).
    pub fn new(kind: DetectorKind, config: SynDogConfig) -> Self {
        kind.build(config)
    }

    /// Which strategy this is.
    pub fn kind(&self) -> DetectorKind {
        match self {
            AnyDetector::Syndog(_) => DetectorKind::Syndog,
            AnyDetector::SynCusum(_) => DetectorKind::SynCusum,
            AnyDetector::Ewma(_) => DetectorKind::Ewma,
            AnyDetector::FinPair(_) => DetectorKind::FinPair,
        }
    }

    /// The configuration the strategy runs with.
    pub fn config(&self) -> &SynDogConfig {
        match self {
            AnyDetector::Syndog(d) => d.config(),
            AnyDetector::SynCusum(d) => d.config(),
            AnyDetector::Ewma(d) => d.config(),
            AnyDetector::FinPair(d) => d.config(),
        }
    }

    /// Consumes one period's counters and returns the decision record.
    pub fn observe(&mut self, signals: PeriodSignals) -> Detection {
        match self {
            AnyDetector::Syndog(d) => d.observe(signals.counts()),
            AnyDetector::SynCusum(d) => d.observe(signals),
            AnyDetector::Ewma(d) => d.observe(signals),
            AnyDetector::FinPair(d) => {
                let counts = signals.syn_fin();
                let k_average = d
                    .closes_average()
                    .unwrap_or_else(|| FinPairDetector::weighted_closes(&counts))
                    .max(1.0);
                let fd = d.observe(counts);
                Detection {
                    period: fd.period,
                    delta: fd.delta,
                    k_average,
                    x: fd.x,
                    statistic: fd.statistic,
                    alarm: fd.alarm,
                }
            }
        }
    }

    /// The current decision statistic.
    pub fn statistic(&self) -> f64 {
        match self {
            AnyDetector::Syndog(d) => d.statistic(),
            AnyDetector::SynCusum(d) => d.cusum.statistic(),
            AnyDetector::Ewma(d) => {
                // No standing CUSUM here: report the last streak ratio's
                // progress toward persistence, 0 when calm.
                if d.streak == 0 {
                    0.0
                } else {
                    d.streak as f64 / Self::ewma_persistence()
                }
            }
            AnyDetector::FinPair(d) => d.statistic(),
        }
    }

    fn ewma_persistence() -> f64 {
        EwmaDetector::PERSISTENCE as f64
    }

    /// The baseline estimate the strategy normalizes against, if seeded.
    pub fn k_average(&self) -> Option<f64> {
        match self {
            AnyDetector::Syndog(d) => d.k_average(),
            AnyDetector::SynCusum(d) => d.syn_average(),
            AnyDetector::Ewma(d) => d.syn_average(),
            AnyDetector::FinPair(d) => d.closes_average(),
        }
    }

    /// The period index of the first alarm, if any.
    pub fn first_alarm_period(&self) -> Option<u64> {
        match self {
            AnyDetector::Syndog(d) => d.first_alarm_period(),
            AnyDetector::SynCusum(d) => d.cusum.first_alarm(),
            AnyDetector::Ewma(d) => d.first_alarm,
            AnyDetector::FinPair(d) => d.first_alarm_period(),
        }
    }

    /// Number of periods observed so far.
    pub fn periods_observed(&self) -> u64 {
        match self {
            AnyDetector::Syndog(d) => d.periods_observed(),
            AnyDetector::SynCusum(d) => d.cusum.observations(),
            AnyDetector::Ewma(d) => d.periods,
            AnyDetector::FinPair(d) => d.periods_observed(),
        }
    }

    /// Resets all running state, keeping the configuration.
    pub fn reset(&mut self) {
        match self {
            AnyDetector::Syndog(d) => d.reset(),
            AnyDetector::SynCusum(d) => d.reset(),
            AnyDetector::Ewma(d) => d.reset(),
            AnyDetector::FinPair(d) => d.reset(),
        }
    }
}

impl Serialize for AnyDetector {
    fn to_value(&self) -> Value {
        let (tag, payload) = match self {
            AnyDetector::Syndog(d) => ("syndog", d.to_value()),
            AnyDetector::SynCusum(d) => ("syn-cusum", d.to_value()),
            AnyDetector::Ewma(d) => ("ewma", d.to_value()),
            AnyDetector::FinPair(d) => ("fin-pair", d.to_value()),
        };
        Value::Map(vec![(tag.to_string(), payload)])
    }
}

impl Deserialize for AnyDetector {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        match value.as_tagged() {
            Some(("syndog", payload)) => Deserialize::from_value(payload).map(AnyDetector::Syndog),
            Some(("syn-cusum", payload)) => {
                Deserialize::from_value(payload).map(AnyDetector::SynCusum)
            }
            Some(("ewma", payload)) => Deserialize::from_value(payload).map(AnyDetector::Ewma),
            Some(("fin-pair", payload)) => {
                Deserialize::from_value(payload).map(AnyDetector::FinPair)
            }
            _ => Err(serde::Error::custom("unrecognized detector state")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(syn: u64) -> PeriodSignals {
        PeriodSignals {
            syn,
            synack: syn - syn / 20,
            fin: syn * 94 / 100,
            rst: syn * 8 / 100,
        }
    }

    fn flooded(base: u64, extra: u64) -> PeriodSignals {
        let mut signals = quiet(base);
        signals.syn += extra;
        signals
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in DetectorKind::ALL {
            assert_eq!(kind.name().parse::<DetectorKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("bogus".parse::<DetectorKind>().is_err());
    }

    #[test]
    fn every_strategy_detects_a_blunt_flood_and_spares_quiet_traffic() {
        for kind in DetectorKind::ALL {
            let mut detector = kind.build(SynDogConfig::paper_default());
            for _ in 0..40 {
                let d = detector.observe(quiet(2000));
                assert!(!d.alarm, "{kind} false alarm on quiet traffic");
            }
            let mut alarmed = false;
            for _ in 0..8 {
                alarmed |= detector.observe(flooded(2000, 8000)).alarm;
            }
            assert!(alarmed, "{kind} missed a 5x flood");
            assert!(detector.first_alarm_period().is_some());
            assert!(detector.periods_observed() >= 40);
        }
    }

    #[test]
    fn reset_restores_fresh_state_for_every_strategy() {
        for kind in DetectorKind::ALL {
            let mut detector = kind.build(SynDogConfig::paper_default());
            for _ in 0..5 {
                detector.observe(flooded(100, 5000));
            }
            detector.reset();
            assert_eq!(detector.periods_observed(), 0, "{kind}");
            assert_eq!(detector.first_alarm_period(), None, "{kind}");
            assert_eq!(detector.k_average(), None, "{kind}");
        }
    }

    #[test]
    fn syndog_variant_matches_bare_detector() {
        let config = SynDogConfig::paper_default();
        let mut wrapped = DetectorKind::Syndog.build(config);
        let mut bare = SynDogDetector::new(config);
        for signals in [quiet(500), flooded(500, 2000), flooded(500, 2000)] {
            assert_eq!(wrapped.observe(signals), bare.observe(signals.counts()));
        }
    }

    #[test]
    fn ewma_persistence_suppresses_single_period_bursts() {
        let mut detector = EwmaDetector::new(SynDogConfig::paper_default());
        for _ in 0..20 {
            detector.observe(quiet(1000));
        }
        // One wild period, then calm: no alarm.
        assert!(!detector.observe(flooded(1000, 20_000)).alarm);
        assert!(!detector.observe(quiet(1000)).alarm);
        // Two consecutive over-threshold periods alarm.
        detector.observe(flooded(1000, 20_000));
        assert!(detector.observe(flooded(1000, 20_000)).alarm);
    }

    #[test]
    fn syn_cusum_ignores_reverse_path_entirely() {
        let mut with_acks = SynCountCusum::new(SynDogConfig::paper_default());
        let mut without = SynCountCusum::new(SynDogConfig::paper_default());
        for _ in 0..10 {
            let a = with_acks.observe(PeriodSignals {
                syn: 900,
                synack: 880,
                fin: 800,
                rst: 10,
            });
            let b = without.observe(PeriodSignals {
                syn: 900,
                synack: 0,
                fin: 0,
                rst: 0,
            });
            assert_eq!(a, b);
        }
    }

    #[test]
    fn serialized_form_is_tagged_and_round_trips() {
        for kind in DetectorKind::ALL {
            let mut detector = kind.build(SynDogConfig::tuned_site_specific());
            for _ in 0..7 {
                detector.observe(flooded(300, 900));
            }
            let value = detector.to_value();
            let (tag, _) = value.as_tagged().expect("externally tagged");
            assert_eq!(tag, kind.name());
            let restored = AnyDetector::from_value(&value).unwrap();
            assert_eq!(restored, detector);
        }
    }

    #[test]
    fn untagged_detector_state_is_rejected() {
        let mut bare = SynDogDetector::new(SynDogConfig::paper_default());
        bare.observe(PeriodCounts {
            syn: 700,
            synack: 650,
        });
        assert!(AnyDetector::from_value(&bare.to_value()).is_err());
        assert!(AnyDetector::from_value(&Value::Str("junk".into())).is_err());
    }

    #[test]
    fn period_signals_conversions() {
        let signals = PeriodSignals {
            syn: 10,
            synack: 8,
            fin: 7,
            rst: 2,
        };
        assert_eq!(signals.counts(), PeriodCounts { syn: 10, synack: 8 });
        assert_eq!(
            signals.syn_fin(),
            SynFinCounts {
                syn: 10,
                fin: 7,
                rst: 2
            }
        );
        let from_counts: PeriodSignals = PeriodCounts { syn: 3, synack: 1 }.into();
        assert_eq!(
            from_counts,
            PeriodSignals {
                syn: 3,
                synack: 1,
                fin: 0,
                rst: 0
            }
        );
    }
}
