//! Fault-injection and recovery integration tests: the loss/reorder soak
//! sweep, the checkpoint/restore round-trip equivalence, and seeded fault
//! determinism (including as property tests).
//!
//! The soak sweep is the paper's robustness claim made executable: §3.1's
//! normalization `X_n = Δ_n / K̄` divides two quantities that uniform
//! loss scales by the same factor, so detection delay should hold — not
//! degrade past a period — up to ~10% loss, and reordering within the
//! period should not matter at all.

use proptest::prelude::*;

use syndog::SynDogConfig;
use syndog_attack::SynFlood;
use syndog_router::{Checkpoint, FaultSpec, SynDogAgent};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::SiteProfile;
use syndog_traffic::Trace;

/// Auckland background traffic with a 10 SYN/s flood starting at period
/// 40 — the fixture the agent-level detection-delay tests use.
fn flooded_trace(seed: u64) -> (SiteProfile, Trace) {
    let site = SiteProfile::auckland();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut trace = site.generate_trace(&mut rng);
    let flood = SynFlood::constant(
        10.0,
        SimTime::from_secs(40 * 20),
        SimDuration::from_secs(600),
        "192.0.2.80:80".parse().unwrap(),
    );
    trace.merge(&flood.generate_trace(&mut rng));
    (site, trace)
}

fn agent_for(site: &SiteProfile) -> SynDogAgent {
    SynDogAgent::new(site.stub(), SynDogConfig::paper_default())
}

/// Runs the trace through a faulted agent and returns the first-alarm
/// period (absolute), if any.
fn faulted_alarm_period(site: &SiteProfile, trace: &Trace, spec: FaultSpec) -> Option<u64> {
    let mut agent = agent_for(site);
    agent.run_trace(&spec.apply_to_trace(trace).0);
    agent.first_alarm().map(|a| a.period)
}

#[test]
fn detection_delay_degrades_gracefully_under_loss_and_reorder() {
    let (site, trace) = flooded_trace(32);
    let clean = faulted_alarm_period(&site, &trace, FaultSpec::off())
        .expect("clean run must detect the flood");
    let clean_delay = clean.saturating_sub(40);

    // Loss sweep: delays must stay within one period of the clean run up
    // to 10% loss (the normalization divides out uniform loss), and the
    // delay sequence must not fall off a cliff as the rate rises.
    let mut delays = vec![clean_delay];
    for (i, loss) in [0.02, 0.05, 0.10].into_iter().enumerate() {
        let spec = FaultSpec {
            drop: loss,
            seed: 100 + i as u64,
            ..FaultSpec::off()
        };
        let period = faulted_alarm_period(&site, &trace, spec)
            .unwrap_or_else(|| panic!("flood must still be detected at {loss} loss"));
        let delay = period.saturating_sub(40);
        assert!(
            delay <= clean_delay + 1,
            "delay {delay} at {loss} loss vs clean {clean_delay}"
        );
        delays.push(delay);
    }
    assert!(
        delays.windows(2).all(|w| w[1] + 1 >= w[0]),
        "graceful degradation violated: {delays:?}"
    );

    // Reorder sweep: shuffling within windows far smaller than a period
    // must not move the alarm at all.
    for (i, window) in [4usize, 16, 64].into_iter().enumerate() {
        let spec = FaultSpec {
            reorder_window: window,
            seed: 200 + i as u64,
            ..FaultSpec::off()
        };
        let period = faulted_alarm_period(&site, &trace, spec)
            .unwrap_or_else(|| panic!("flood must still be detected at reorder window {window}"));
        assert!(
            period.saturating_sub(40) <= clean_delay + 1,
            "reorder window {window} moved the alarm to period {period}"
        );
    }

    // Combined stress: loss + reorder + clock jitter together.
    let spec = FaultSpec {
        drop: 0.05,
        reorder_window: 16,
        jitter: SimDuration::from_millis(50),
        seed: 300,
        ..FaultSpec::off()
    };
    let period = faulted_alarm_period(&site, &trace, spec)
        .expect("flood must survive combined loss+reorder+jitter");
    assert!(period.saturating_sub(40) <= clean_delay + 1);
}

#[test]
fn clean_traffic_stays_alarm_free_under_faults() {
    // Faults must not conjure a flood out of clean traffic: dropping and
    // reordering legitimate handshakes scales SYN and SYN/ACK together.
    let site = SiteProfile::auckland();
    let mut rng = SimRng::seed_from_u64(31);
    let trace = site.generate_trace(&mut rng);
    for spec in [
        FaultSpec {
            drop: 0.10,
            seed: 1,
            ..FaultSpec::off()
        },
        FaultSpec {
            drop: 0.05,
            reorder_window: 32,
            jitter: SimDuration::from_millis(20),
            seed: 2,
            ..FaultSpec::off()
        },
    ] {
        let alarm = faulted_alarm_period(&site, &trace, spec);
        assert_eq!(alarm, None, "false alarm under {spec:?}");
    }
}

/// Builds the tail of `trace` for resuming at period `k`: records from
/// `k * period` on, ending where the trace ends (a duration is an
/// absolute end, not a length from the cut).
fn trace_tail(trace: &Trace, k: u64, period: SimDuration) -> Trace {
    let cut = SimTime::ZERO + period * k;
    let records = trace
        .records()
        .iter()
        .filter(|r| r.time >= cut)
        .copied()
        .collect();
    Trace::from_records(records, trace.duration())
}

/// Builds the head of `trace` up to period `k`.
fn trace_head(trace: &Trace, k: u64, period: SimDuration) -> Trace {
    let cut = SimTime::ZERO + period * k;
    let records = trace
        .records()
        .iter()
        .filter(|r| r.time < cut)
        .copied()
        .collect();
    Trace::from_records(records, period * k)
}

#[test]
fn checkpoint_restore_reproduces_uninterrupted_detections() {
    let (site, trace) = flooded_trace(32);
    let mut uninterrupted = agent_for(&site);
    uninterrupted.run_trace(&trace);
    assert!(
        uninterrupted.first_alarm().is_some(),
        "fixture must contain a detectable flood"
    );

    let period = uninterrupted.router().period();
    // Cut before learning converges, mid-learning, at flood onset, and
    // mid-attack: every boundary must restore to the identical series.
    for k in [1u64, 17, 40, 55] {
        let mut first_half = agent_for(&site);
        first_half.run_trace(&trace_head(&trace, k, period));
        assert_eq!(first_half.router().current_period(), k);

        let json = first_half.checkpoint().to_json();
        let restored = Checkpoint::from_json(&json).expect("checkpoint parses back");
        let mut resumed = SynDogAgent::restore(&restored).expect("checkpoint restores");
        resumed.run_trace(&trace_tail(&trace, k, period));

        assert_eq!(
            resumed.detections(),
            uninterrupted.detections(),
            "detection series diverged after restore at period {k}"
        );
        assert_eq!(
            resumed.alarms(),
            uninterrupted.alarms(),
            "alarms diverged after restore at period {k}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two passes with the same spec over the same trace produce
    /// identical faulted traces, identical ledgers, and identical
    /// detection series.
    #[test]
    fn same_seed_same_faulted_stream_and_detections(
        seed in 0u64..1000,
        drop_pct in 0u32..30,
        dup_pct in 0u32..20,
        window in 0usize..8,
    ) {
        let spec = FaultSpec {
            drop: f64::from(drop_pct) / 100.0,
            duplicate: f64::from(dup_pct) / 100.0,
            reorder_window: window,
            jitter: SimDuration::from_millis(5),
            seed,
            ..FaultSpec::off()
        };
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(40);
        let trace = site.generate_trace(&mut rng);

        let (first, first_ledger) = spec.apply_to_trace(&trace);
        let (second, second_ledger) = spec.apply_to_trace(&trace);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(first_ledger, second_ledger);

        let mut agent_a = agent_for(&site);
        agent_a.run_trace(&first);
        let mut agent_b = agent_for(&site);
        agent_b.run_trace(&second);
        prop_assert_eq!(agent_a.detections(), agent_b.detections());
        prop_assert_eq!(agent_a.alarms(), agent_b.alarms());
    }

    /// An off spec is the identity: same records, same detections as the
    /// bare trace, regardless of seed.
    #[test]
    fn off_faults_are_identity(seed in 0u64..1000) {
        let spec = FaultSpec { seed, ..FaultSpec::off() };
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(41);
        let trace = site.generate_trace(&mut rng);

        let (faulted_trace, ledger) = spec.apply_to_trace(&trace);
        prop_assert_eq!(&faulted_trace, &trace);
        prop_assert_eq!(ledger.emitted_events, ledger.input_events);
        prop_assert_eq!(ledger.reordered + ledger.jittered + ledger.corrupted, 0);

        let mut direct = agent_for(&site);
        direct.run_trace(&trace);
        let mut faulted = agent_for(&site);
        faulted.run_trace(&faulted_trace);
        prop_assert_eq!(direct.detections(), faulted.detections());
    }
}
