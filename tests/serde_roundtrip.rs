//! Serde round-trips for the public data types: configurations, detection
//! records and summaries survive JSON serialization bit-for-bit, so
//! experiment results can be archived and replayed.

use syndog::{Detection, PeriodCounts, SynDogConfig, SynDogDetector};
use syndog::{DetectionSummary, TrialOutcome};
use syndog_sim::{SimDuration, SimTime};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn config_roundtrips() {
    for config in [
        SynDogConfig::paper_default(),
        SynDogConfig::tuned_site_specific(),
    ] {
        assert_eq!(roundtrip(&config), config);
    }
}

#[test]
fn whole_detector_state_roundtrips() {
    // The detector itself is serializable: an agent can checkpoint its
    // three floats of state and resume.
    let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
    for _ in 0..5 {
        dog.observe(PeriodCounts {
            syn: 1000,
            synack: 960,
        });
    }
    dog.observe(PeriodCounts {
        syn: 2400,
        synack: 960,
    });
    let restored: SynDogDetector = roundtrip(&dog);
    assert_eq!(restored, dog);
    // And the restored detector continues identically.
    let mut a = dog.clone();
    let mut b = restored;
    let next = PeriodCounts {
        syn: 2400,
        synack: 960,
    };
    assert_eq!(a.observe(next), b.observe(next));
}

#[test]
fn detection_records_roundtrip() {
    let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
    let detection: Detection = dog.observe(PeriodCounts { syn: 10, synack: 8 });
    assert_eq!(roundtrip(&detection), detection);
}

#[test]
fn metrics_and_episodes_roundtrip() {
    let outcome = TrialOutcome {
        attack_start_period: 15,
        detected_at_period: Some(19),
        false_alarms_before_attack: 0,
    };
    assert_eq!(roundtrip(&outcome), outcome);
    let summary = DetectionSummary::from_trials(&[outcome]);
    assert_eq!(roundtrip(&summary), summary);
}

#[test]
fn sim_time_types_roundtrip_as_integers() {
    let t = SimTime::from_secs_f64(12.345678);
    assert_eq!(roundtrip(&t), t);
    let d = SimDuration::from_millis(20_500);
    assert_eq!(roundtrip(&d), d);
    // The representation is the raw microsecond count — stable across
    // versions.
    assert_eq!(serde_json::to_string(&d).unwrap(), "20500000");
}
