//! The pcap bridge carries everything the detector needs: a trace
//! exported to pcap and re-imported yields identical per-period counts,
//! identical detection decisions, and preserved MAC evidence.

use syndog::SynDogConfig;
use syndog_attack::SynFlood;
use syndog_net::{Ipv4Net, MacAddr};
use syndog_router::SynDogAgent;
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::sites::{SiteProfile, OBSERVATION_PERIOD};
use syndog_traffic::{RecordReader, Trace};

fn roundtrip(trace: &Trace, stub: Ipv4Net) -> Trace {
    let mut file = Vec::new();
    trace.write_pcap(&mut file).expect("export");
    let restored = Trace::read_pcap(file.as_slice(), stub).expect("import");
    // pcap carries no duration metadata; restore the nominal span so
    // period binning matches.
    let mut spanned = Trace::new(trace.duration());
    spanned.extend(restored.records().iter().copied());
    spanned
}

#[test]
fn clean_trace_counts_survive_pcap() {
    let site = SiteProfile::lbl();
    let mut rng = SimRng::seed_from_u64(11);
    let trace = site.generate_trace(&mut rng);
    let restored = roundtrip(&trace, site.stub());
    assert_eq!(restored.len(), trace.len());
    assert_eq!(
        restored.period_counts(OBSERVATION_PERIOD),
        trace.period_counts(OBSERVATION_PERIOD)
    );
    assert_eq!(
        restored.period_counts_bidirectional(OBSERVATION_PERIOD),
        trace.period_counts_bidirectional(OBSERVATION_PERIOD)
    );
}

#[test]
fn detection_decisions_identical_through_pcap() {
    let site = SiteProfile::auckland();
    let mut rng = SimRng::seed_from_u64(12);
    let mut trace = site.generate_trace(&mut rng);
    let flood = SynFlood::constant(
        5.0,
        SimTime::ZERO + OBSERVATION_PERIOD * 80,
        SimDuration::from_secs(600),
        "199.0.0.80:80".parse().unwrap(),
    );
    trace.merge(&flood.generate_trace(&mut rng));
    let restored = roundtrip(&trace, site.stub());

    let mut direct = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
    direct.run_trace(&trace);
    let mut via_pcap = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
    via_pcap.run_trace(&restored);
    assert_eq!(direct.detections(), via_pcap.detections());
    assert_eq!(direct.first_alarm(), via_pcap.first_alarm());
    assert!(direct.first_alarm().is_some());
}

#[test]
fn attacker_mac_survives_pcap_for_localization() {
    let mut rng = SimRng::seed_from_u64(13);
    let attacker = MacAddr::for_host(0xffcc, 3);
    let stub: Ipv4Net = "130.216.0.0/16".parse().unwrap();
    let flood = SynFlood::constant(
        50.0,
        SimTime::ZERO,
        SimDuration::from_secs(120),
        "199.0.0.80:80".parse().unwrap(),
    )
    .with_mac(attacker);
    let trace = flood.generate_trace(&mut rng);
    let restored = roundtrip(&trace, stub);
    assert!(restored.records().iter().all(|r| r.src_mac == attacker));
}

#[test]
fn binary_format_equivalent_to_pcap_for_detection() {
    let site = SiteProfile::harvard();
    let mut rng = SimRng::seed_from_u64(14);
    let trace = site.generate_trace(&mut rng);
    let mut bin = Vec::new();
    trace.write_binary(&mut bin).expect("export binary");
    let from_binary = RecordReader::binary(bin.as_slice())
        .and_then(RecordReader::into_trace)
        .expect("import binary");
    // Binary preserves records exactly (including direction tags), so it
    // is strictly stronger than pcap (which re-infers direction).
    assert_eq!(from_binary, trace);
}
