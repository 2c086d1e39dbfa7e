//! Source localization across the full pipeline, including the cases that
//! make it hard: multiple simultaneous flooders and a noisy background
//! with legitimate scanners.

use syndog::SynDogConfig;
use syndog_attack::{SpoofStrategy, SynFlood};
use syndog_net::MacAddr;
use syndog_router::{SourceLocator, SynDogAgent};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::{sites::OBSERVATION_PERIOD, SiteProfile};

fn flood(rate: f64, mac: MacAddr, start_period: u64) -> SynFlood {
    SynFlood::constant(
        rate,
        SimTime::ZERO + OBSERVATION_PERIOD * start_period,
        SimDuration::from_secs(600),
        "199.0.0.80:80".parse().unwrap(),
    )
    .with_mac(mac)
}

#[test]
fn two_concurrent_flooders_both_ranked() {
    let site = SiteProfile::auckland();
    let mut rng = SimRng::seed_from_u64(21);
    let mut trace = site.generate_trace(&mut rng);
    let big_mac = MacAddr::for_host(0xaa, 1);
    let small_mac = MacAddr::for_host(0xbb, 2);
    trace.merge(&flood(8.0, big_mac, 60).generate_trace(&mut rng));
    trace.merge(&flood(4.0, small_mac, 60).generate_trace(&mut rng));

    let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
    let mut locator = SourceLocator::new(site.stub());
    agent.run_trace_with(
        trace.records().iter().copied(),
        Some(trace.duration()),
        |agent, record, _| locator.observe_after_alarm(agent, record),
    );
    assert!(agent.first_alarm().is_some());
    let suspects = locator.suspects();
    assert!(
        suspects.len() >= 2,
        "both flooders must appear: {suspects:?}"
    );
    assert_eq!(suspects[0].mac, big_mac, "larger flooder ranks first");
    let small_entry = suspects
        .iter()
        .find(|s| s.mac == small_mac)
        .expect("small flooder listed");
    assert!(suspects[0].spoofed_syns > small_entry.spoofed_syns);
}

#[test]
fn anomaly_scanners_do_not_dominate_the_suspect_list() {
    // Background anomalies (scanners inside the stub) emit unanswered SYNs
    // from their *own* address — the ingress-filter test keeps them off
    // the spoofed tally entirely.
    let site = SiteProfile::auckland();
    let mut rng = SimRng::seed_from_u64(22);
    let mut trace = site.generate_trace(&mut rng);
    let attacker = MacAddr::for_host(0xcc, 9);
    trace.merge(&flood(10.0, attacker, 90).generate_trace(&mut rng));

    let mut locator = SourceLocator::new(site.stub());
    locator.arm(); // armed for the whole trace: worst case for noise
    for record in trace.records() {
        locator.observe(record);
    }
    let prime = locator.prime_suspect(0.95).expect("attacker dominates");
    assert_eq!(prime.mac, attacker);
}

#[test]
fn fully_random_spoofing_still_attributed_by_mac() {
    // RandomAny spoofing emits routable addresses outside the stub; the
    // ingress-filter half of the test catches those too.
    let site = SiteProfile::auckland();
    let mut rng = SimRng::seed_from_u64(23);
    let attacker = MacAddr::for_host(0xdd, 4);
    let f = SynFlood {
        spoof: SpoofStrategy::RandomAny,
        ..flood(20.0, attacker, 0)
    };
    let trace = f.generate_trace(&mut rng);
    let mut locator = SourceLocator::new(site.stub());
    locator.arm();
    let mut in_stub_spoofs = 0u64;
    for record in trace.records() {
        if site.stub().contains(*record.src.ip()) {
            in_stub_spoofs += 1; // rare: random 32-bit address inside /16
        }
        locator.observe(record);
    }
    let prime = locator.prime_suspect(0.9).expect("attributed");
    assert_eq!(prime.mac, attacker);
    // Spoofs landing inside the stub evade the filter; they must be a
    // vanishing fraction (2^16/2^32 ≈ 0.0015%).
    assert!(in_stub_spoofs * 1000 < prime.spoofed_syns);
}

#[test]
fn locator_stays_quiet_without_alarm_trigger() {
    // The agent+locator protocol: nothing is accounted until the CUSUM
    // alarm arms the locator — steady state stays stateless.
    let site = SiteProfile::lbl();
    let mut rng = SimRng::seed_from_u64(24);
    let trace = site.generate_trace(&mut rng);
    let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
    let mut locator = SourceLocator::new(site.stub());
    agent.run_trace_with(
        trace.records().iter().copied(),
        Some(trace.duration()),
        |agent, record, _| locator.observe_after_alarm(agent, record),
    );
    assert!(agent.first_alarm().is_none());
    assert!(!locator.is_armed());
    assert!(locator.activity().is_empty());
}
