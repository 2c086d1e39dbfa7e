//! Internet-scale fleet acceptance: the streaming count-level fold and
//! the hierarchical correlation tier.
//!
//! The claims under test (the tentpole of the scale refactor):
//!
//! 1. **Determinism** — at 1,000 stubs the campaign report and the fleet
//!    CSV are byte-identical at any worker count, because the fold
//!    consumes rows strictly in stub-index order.
//! 2. **Reconstruction** — a 2,000-stub distributed flood whose every
//!    slave stays below a single big vantage's `f_min` is reconstructed
//!    as exactly one campaign: all attacked stubs implicated, zero false
//!    implications, topology cross-check MATCH.
//!
//! That collector clustering does not depend on the order alarm edges
//! arrive in is a unit test of the correlation tier.

use syndog::SynDogConfig;
use syndog_router::{CollectorConfig, Fleet, MitigationPolicy, Scenario};
use syndog_sim::Parallelism;
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::SiteProfile;

fn victim() -> std::net::SocketAddrV4 {
    "192.0.2.80:80".parse().unwrap()
}

/// A distributed-flood scenario sized for CI: `stubs` LBL workloads,
/// `attacked_every`-th stub hosting a slave, each slave far below the
/// ~37 SYN/s a UNC-scale single vantage needs.
fn scale_scenario(stubs: usize, attacked_every: usize, seed: u64) -> Scenario {
    let template = SiteProfile::lbl().with_duration(SimDuration::from_secs(1_800));
    let attacked: Vec<usize> = (0..stubs).step_by(attacked_every).collect();
    let per_slave = 6.0;
    Scenario::distributed_flood(
        "scale",
        &template,
        stubs,
        &attacked,
        per_slave * attacked.len() as f64,
        SimTime::from_secs(600),
        victim(),
        SynDogConfig::paper_default(),
        seed,
    )
}

#[test]
fn thousand_stub_campaign_report_is_byte_identical_at_any_worker_count() {
    let config = CollectorConfig::with_regions(8);
    let outputs: Vec<(String, String)> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| {
            let fleet = Fleet::new(scale_scenario(1_000, 25, 42))
                .with_parallelism(Parallelism::Fixed(jobs));
            let mut csv = Vec::new();
            let run = fleet
                .run_counts_correlated(&config, Some(&mut csv))
                .expect("in-memory spill");
            (run.render(), String::from_utf8(csv).unwrap())
        })
        .collect();
    for (render, csv) in &outputs[1..] {
        assert_eq!(render, &outputs[0].0, "campaign report depends on --jobs");
        assert_eq!(csv, &outputs[0].1, "fleet CSV depends on --jobs");
    }
    assert_eq!(
        outputs[0].1.lines().count(),
        1_001,
        "header + one row per stub"
    );
}

#[test]
fn two_thousand_stub_distributed_flood_reconstructs_exactly() {
    let fleet = Fleet::new(scale_scenario(2_000, 20, 7));
    let run = fleet
        .run_counts_correlated(&CollectorConfig::with_regions(8), None)
        .expect("no CSV writer");
    assert_eq!(run.stubs, 2_000);
    assert_eq!(run.attacked, 100, "ground truth: 100 slaves");
    assert_eq!(
        run.implicated, 100,
        "every slave implicated, no clean stub falsely accused"
    );
    let report = &run.report;
    assert!(report.exact_reconstruction(), "{}", report.render());
    assert_eq!(report.campaigns.len(), 1, "one master, one campaign");
    let campaign = &report.campaigns[0];
    assert_eq!(campaign.members.len(), 100);
    assert_eq!(campaign.regions, 8, "slaves span every region");
    assert!(report.topology_cross_check().matches());
    let rendered = run.render();
    assert!(rendered.contains("CAMPAIGN 1:"));
    assert!(rendered.contains("campaign reconstruction: EXACT"));
    assert!(rendered.contains("campaign topology cross-check: MATCH"));
    // The top-K spotlight is bounded and names only implicated stubs.
    assert_eq!(run.top.len(), CollectorConfig::default().top_k);
}

/// 64-bit FNV-1a over `words`, each hashed as its little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Pins the count-level fold bit for bit: site counts, each slave's
/// `SynFlood::period_counts`, the detector and the count throttle, over a
/// 40-stub one-hour LBL fleet with mitigation armed and a 6 SYN/s slave
/// on every 20th stub.
#[test]
fn count_level_fleet_fold_is_pinned() {
    let attacked: Vec<usize> = (0..40).step_by(20).collect();
    let scenario = Scenario::distributed_flood(
        "pinned",
        &SiteProfile::lbl(),
        40,
        &attacked,
        6.0 * attacked.len() as f64,
        SimTime::from_secs(600),
        victim(),
        SynDogConfig::paper_default(),
        1,
    )
    .with_mitigation(MitigationPolicy::paper_default());
    let (words, engaged) = Fleet::new(scenario).fold_counts(
        (Vec::new(), 0),
        |(words, engaged): &mut (Vec<u64>, usize), row| {
            *engaged += usize::from(row.report.engaged_period.is_some());
            // Every field the count-level fold fills in, as digest words:
            // an optional value hashes as a presence flag and the value, a
            // rate as its bits.
            let r = &row.report;
            let opt = |v: Option<u64>| [u64::from(v.is_some()), v.unwrap_or(0)];
            words.extend([row.index as u64, r.periods, u64::from(r.attacked)]);
            words.push(r.attack_rate.to_bits());
            words.extend(opt(r.attack_start_period));
            words.push(u64::from(r.implicated));
            words.extend(opt(r.first_alarm_period));
            words.extend(opt(r.first_alarm_secs.map(f64::to_bits)));
            words.extend(opt(r.detection_delay_periods));
            words.push(r.false_alarm_periods);
            words.push(u64::from(r.mitigated));
            words.extend(opt(r.engaged_period));
            words.extend(opt(r.release_period));
            words.extend([r.throttled_syns, r.collateral_syns]);
            words.extend([r.attack_syns_offered, r.attack_syns_forwarded]);
            words.push(r.victim_syn_rate_before.to_bits());
            words.push(r.victim_syn_rate_after.to_bits());
            for onset in &row.onsets {
                words.extend([onset.stub as u64, onset.onset_period, onset.alarm_period]);
                words.push(onset.est_rate.to_bits());
            }
        },
    );
    assert!(engaged > 0, "the digest must cover an engaged throttle");
    let got = fnv1a(words);
    assert_eq!(got, 0x81b3e4f0b0840aa1, "fleet fold digest: {got:#018x}");
}
