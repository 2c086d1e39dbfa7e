//! Full-pipeline integration: traffic generation → flood injection →
//! leaf router → sniffers → normalization → CUSUM → alarm → localization.

use syndog::{expected_delay_periods, SynDogConfig};
use syndog_attack::{DdosCampaign, SynFlood};
use syndog_net::MacAddr;
use syndog_router::{SourceLocator, SynDogAgent};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::{sites::OBSERVATION_PERIOD, SiteProfile};

fn flooded_trace(
    site: &SiteProfile,
    rate: f64,
    start_period: u64,
    mac: MacAddr,
    seed: u64,
) -> syndog_traffic::Trace {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut trace = site.generate_trace(&mut rng);
    let flood = SynFlood::constant(
        rate,
        SimTime::ZERO + OBSERVATION_PERIOD * start_period,
        SimDuration::from_secs(600),
        "199.0.0.80:80".parse().unwrap(),
    )
    .with_mac(mac);
    trace.merge(&flood.generate_trace(&mut rng));
    trace
}

#[test]
fn auckland_flood_detected_and_localized() {
    let site = SiteProfile::auckland();
    let attacker = MacAddr::for_host(0xffaa, 7);
    let trace = flooded_trace(&site, 10.0, 60, attacker, 1);

    let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
    let mut locator = SourceLocator::new(site.stub());
    agent.run_trace_with(
        trace.records().iter().copied(),
        Some(trace.duration()),
        |agent, record, _| locator.observe_after_alarm(agent, record),
    );
    let alarm = agent
        .first_alarm()
        .expect("10 SYN/s at Auckland must be caught");
    assert!(
        alarm.period >= 60,
        "alarm {} before flood start",
        alarm.period
    );
    assert!(
        alarm.period <= 62,
        "alarm too slow: period {}",
        alarm.period
    );
    // No false alarms before the flood.
    assert!(agent.alarms().iter().all(|a| a.period >= 60));
    // Localization names the right host.
    let suspect = locator.prime_suspect(0.8).expect("dominant suspect");
    assert_eq!(suspect.mac, attacker);
}

#[test]
fn unc_flood_detection_delay_matches_theory() {
    let site = SiteProfile::unc();
    let config = SynDogConfig::paper_default();
    let rate = 60.0;
    let trace = flooded_trace(&site, rate, 20, MacAddr::for_host(1, 1), 2);
    let mut agent = SynDogAgent::new(site.stub(), config);
    agent.run_trace(&trace);
    let alarm = agent.first_alarm().expect("60 SYN/s at UNC must be caught");
    let delay = alarm.period - 20;
    let predicted = expected_delay_periods(&config, rate, site.expected_k(), site.residual_mean())
        .expect("rate above f_min");
    // Measured delay within ±2 periods of the Eq. 7 estimate.
    assert!(
        (delay as f64 - predicted).abs() <= 2.0,
        "delay {delay} vs predicted {predicted:.1}"
    );
}

#[test]
fn sub_fmin_flood_is_invisible_as_theory_demands() {
    let site = SiteProfile::unc();
    // 25 SYN/s < f_min ≈ 31 (with c ≈ 0.058): never detectable by the
    // default parameters no matter how long it runs.
    let trace = flooded_trace(&site, 25.0, 10, MacAddr::for_host(1, 1), 3);
    let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
    agent.run_trace(&trace);
    assert!(agent.first_alarm().is_none());
}

#[test]
fn ddos_campaign_seen_identically_by_every_stub() {
    // Two different stub networks host slaves of the same campaign; both
    // SYN-dogs alarm, each against its own background.
    let campaign = DdosCampaign::new(
        100.0,
        10,
        SimTime::ZERO + OBSERVATION_PERIOD * 60,
        "199.0.0.80:80".parse().unwrap(),
    );
    let site = SiteProfile::auckland();
    for index in [0usize, 9] {
        let mut rng = SimRng::seed_from_u64(40 + index as u64);
        let mut trace = site.generate_trace(&mut rng);
        trace.merge(&campaign.slave(index).generate_trace(&mut rng));
        let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
        agent.run_trace(&trace);
        let alarm = agent
            .first_alarm()
            .unwrap_or_else(|| panic!("slave {index} missed"));
        assert!(alarm.period >= 60);
    }
}

#[test]
fn bidirectional_background_does_not_confuse_the_outbound_count() {
    // Harvard has inbound-initiated connections: inbound SYNs and
    // *outbound* SYN/ACKs. Neither must leak into the outbound-SYN /
    // inbound-SYN/ACK pair the detector consumes.
    let site = SiteProfile::harvard();
    let mut rng = SimRng::seed_from_u64(5);
    let trace = site.generate_trace(&mut rng);
    let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
    agent.run_trace(&trace);
    assert!(
        agent.alarms().is_empty(),
        "clean bidirectional traffic alarmed"
    );
    // The detector's K̄ tracks only outbound-initiated handshakes (~70% of
    // the site's connections).
    let k = agent.detector().k_average().expect("seeded");
    let full = site.expected_k();
    assert!(k < full, "K {k} should be below the site-wide {full}");
    assert!(k > full * 0.5, "K {k} implausibly low vs {full}");
}
