//! Fleet-level acceptance tests: worker-count determinism and the paper's
//! distributed-flood localization claim.

use std::sync::Arc;

use syndog::SynDogConfig;
use syndog_net::SegmentKind;
use syndog_router::fleet::{Fleet, Scenario};
use syndog_router::mitigate::MitigationPolicy;
use syndog_router::FaultSpec;
use syndog_sim::par::Parallelism;
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_telemetry::Telemetry;
use syndog_traffic::sites::SiteProfile;
use syndog_traffic::Direction;

fn victim() -> std::net::SocketAddrV4 {
    "199.0.0.80:80".parse().unwrap()
}

/// A small but non-trivial fleet: 4 Auckland-scale stubs, two of them
/// hosting slaves of a distributed flood.
fn ddos_scenario(master_seed: u64) -> Scenario {
    let template = SiteProfile::auckland().with_duration(SimDuration::from_secs(1800));
    Scenario::distributed_flood(
        "ddos-4x2",
        &template,
        4,
        &[1, 3],
        20.0,
        SimTime::from_secs(600),
        victim(),
        SynDogConfig::paper_default(),
        master_seed,
    )
}

/// The determinism requirement: one scenario seed, three worker
/// counts, byte-identical fleet reports — for both the trace-level and
/// the count-level paths.
#[test]
fn fleet_report_is_identical_across_worker_counts() {
    let scenario = ddos_scenario(2024);
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            Fleet::new(scenario.clone())
                .with_parallelism(Parallelism::Fixed(w))
                .run()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
    assert_eq!(runs[0].render(), runs[1].render());
    assert_eq!(runs[0].render(), runs[2].render());
    assert_eq!(runs[0].to_csv(), runs[1].to_csv());
    assert_eq!(runs[0].to_csv(), runs[2].to_csv());

    let count_runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            Fleet::new(scenario.clone())
                .with_parallelism(Parallelism::Fixed(w))
                .run_counts()
        })
        .collect();
    assert_eq!(count_runs[0], count_runs[1]);
    assert_eq!(count_runs[0], count_runs[2]);
    assert_eq!(count_runs[0].to_csv(), count_runs[2].to_csv());
}

/// Trace-level victim rates bin each forwarded SYN in its own period
/// `⌊t/t0⌋`, jittered records that arrive behind the clock included. With
/// no engine armed every outbound SYN is forwarded, so the rates follow
/// from the faulted trace alone.
#[test]
fn victim_rates_bin_late_syns_in_their_own_period() {
    let faults = FaultSpec::parse("reorder=64,jitter_ms=5000").unwrap();
    let scenario = ddos_scenario(11).with_faults(faults);
    let report = Fleet::new(scenario.clone()).run();
    let period = SimDuration::from_secs(20);
    for (index, (spec, row)) in scenario.stubs.iter().zip(&report.stubs).enumerate() {
        let mut rng = SimRng::seed_from_u64(scenario.stub_seed(index));
        let mut trace = spec.site.generate_trace(&mut rng);
        if let Some(flood) = &spec.attack {
            trace.merge(&flood.generate_trace(&mut rng));
        }
        let faults = scenario.stub_faults(index).unwrap();
        let mut syns = vec![0u64; row.periods as usize];
        for record in faults.apply_to_trace(&trace).0.records() {
            let p = record.time.period_index(period) as usize;
            if record.direction == Direction::Outbound && record.kind == SegmentKind::Syn {
                if let Some(count) = syns.get_mut(p) {
                    *count += 1;
                }
            }
        }
        let rate =
            |w: &[u64]| w.iter().sum::<u64>() as f64 / (w.len() as f64 * period.as_secs_f64());
        let (before, after) = match row.first_alarm_period {
            Some(a) if (a as usize) + 1 < syns.len() => {
                let (before, after) = syns.split_at(a as usize + 1);
                (rate(before), rate(after))
            }
            _ => (rate(&syns), rate(&syns)),
        };
        assert_eq!(row.victim_syn_rate_before, before, "stub {index}");
        assert_eq!(row.victim_syn_rate_after, after, "stub {index}");
    }
}

/// The paper's DDoS case, end to end: the aggregate flood is split so
/// each per-stub source stays below a single large-vantage detector's
/// `f_min`, yet the fleet of first-mile agents still implicates exactly
/// the attacked stubs, names the planted slaves' MACs, and agrees with
/// the traceback topology cross-check.
#[test]
fn distributed_flood_below_single_point_threshold_is_localized() {
    let scenario = ddos_scenario(7);

    // Each source runs at 20/2 = 10 SYN/s. A single detector watching a
    // big aggregation point (UNC-scale K̄) cannot see that rate...
    let config = SynDogConfig::paper_default();
    let unc_k_avg = SiteProfile::unc().mean_arrival_rate() * config.observation_period_secs;
    let single_point_f_min = syndog::theory::min_detectable_rate(
        config.offset,
        0.0,
        unc_k_avg,
        config.observation_period_secs,
    );
    let per_stub_rate = scenario.stubs[1].attack.as_ref().unwrap().rate;
    assert_eq!(per_stub_rate, 10.0);
    assert!(
        per_stub_rate < single_point_f_min,
        "per-stub rate {per_stub_rate} must hide below the single-point \
         f_min {single_point_f_min}"
    );
    // ...but each Auckland-scale stub's own f_min is far lower.
    let stub_k_avg = SiteProfile::auckland().mean_arrival_rate() * config.observation_period_secs;
    let stub_f_min = syndog::theory::min_detectable_rate(
        config.offset,
        0.0,
        stub_k_avg,
        config.observation_period_secs,
    );
    assert!(
        per_stub_rate > stub_f_min,
        "per-stub rate {per_stub_rate} must exceed the stub-local \
         f_min {stub_f_min}"
    );

    let report = Fleet::new(scenario).run();

    // Exactly the attacked stubs are implicated.
    let implicated: Vec<&str> = report
        .implicated()
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(implicated, vec!["Auckland-1", "Auckland-3"]);
    // Exact localization: the implicated set equals the attacked set, and
    // no trace-level suspect contradicts the planted attacker.
    assert!(
        report
            .stubs
            .iter()
            .all(|s| s.implicated == s.attacked && s.suspect_is_attacker != Some(false)),
        "report: {}",
        report.render()
    );

    for stub in &report.stubs {
        if stub.attacked {
            assert_eq!(stub.attack_start_period, Some(30));
            let delay = stub
                .detection_delay_periods
                .expect("attacked stub must be detected");
            assert!(delay <= 3, "detection delay {delay} periods too slow");
            // Post-alarm localization pins the planted slave's MAC.
            assert_eq!(stub.suspect_is_attacker, Some(true));
            assert!(stub.suspect_share > 0.5);
        } else {
            assert!(!stub.implicated);
            assert_eq!(stub.false_alarm_periods, 0);
            assert!(stub.suspect_mac.is_none());
        }
    }

    // The fleet's verdict agrees with traceback topology localization.
    let check = report.topology_cross_check();
    assert_eq!(check.expected_sources.len(), 2);
    assert!(check.matches(), "topology cross-check must agree");
    assert!(report.render().contains("topology cross-check: MATCH"));
}

/// The ddos scenario with a *bounded* flood (600 s, periods 30–59) so the
/// hysteresis release is observable before the 90-period trace ends.
fn bounded_ddos_scenario(master_seed: u64) -> Scenario {
    let mut scenario = ddos_scenario(master_seed);
    for i in scenario.attacked_indices() {
        scenario.stubs[i].attack.as_mut().unwrap().duration = SimDuration::from_secs(600);
    }
    scenario
}

/// The tentpole's acceptance criteria, end to end: with `--mitigate`
/// semantics on, attacked stubs engage at the first alarm, cut ≥ 90% of
/// the attack SYNs the victim would have seen, harm no legitimate
/// traffic, and release within the hysteresis window of the attack's end
/// — while clean stubs' rows are identical to a run without mitigation.
#[test]
fn mitigation_collapses_attack_traffic_then_releases() {
    let scenario = bounded_ddos_scenario(2024);
    let baseline = Fleet::new(scenario.clone()).run();
    let mitigated = Fleet::new(scenario.with_mitigation(MitigationPolicy::paper_default())).run();

    for (base, row) in baseline.stubs.iter().zip(&mitigated.stubs) {
        assert!(row.mitigated);
        if row.attacked {
            // Throttles engage exactly at the first alarm's period close.
            assert_eq!(row.engaged_period, row.first_alarm_period);
            // ≥ 90% of the attack SYNs offered while engaged are shed.
            assert!(row.attack_syns_offered > 1000, "row: {row:?}");
            assert!(
                (row.attack_syns_forwarded as f64) < 0.1 * row.attack_syns_offered as f64,
                "throttle leaked {} of {} attack SYNs",
                row.attack_syns_forwarded,
                row.attack_syns_offered
            );
            // No legitimate SYN was ever throttled.
            assert_eq!(row.collateral_syns, 0);
            // The flood ends in period 59; hysteresis (M = 3 calm
            // periods) must release shortly after — not hours later.
            let release = row.release_period.expect("throttles must release");
            assert!(
                (60..=64).contains(&release),
                "release at p{release}, want within the hysteresis window"
            );
            // The victim-observed SYN rate collapses back toward the
            // background-only rate: the unmitigated run forwards the
            // flood, the mitigated run does not.
            assert_eq!(row.victim_syn_rate_before, base.victim_syn_rate_before);
            assert!(
                row.victim_syn_rate_after < 0.6 * base.victim_syn_rate_after,
                "after-alarm rate {} vs unmitigated {}",
                row.victim_syn_rate_after,
                base.victim_syn_rate_after
            );
        } else {
            // Clean stubs: never engaged, nothing throttled, and the row
            // is byte-identical to the unmitigated run apart from the
            // `mitigated` flag itself.
            assert_eq!(row.engaged_period, None);
            assert_eq!(row.throttled_syns, 0);
            let mut unflagged = row.clone();
            unflagged.mitigated = false;
            assert_eq!(&unflagged, base);
        }
    }
    // The render carries the mitigation verdicts the CI smoke greps for.
    let rendered = mitigated.render();
    assert!(rendered.contains("THROTTLED 128.1.0.0/16"));
    assert!(rendered.contains("THROTTLED 128.3.0.0/16"));
}

/// Mitigation does not disturb worker-count determinism: the throttle
/// state is keyed on ordered maps and clocked purely by simulated time,
/// so the mitigated report is byte-identical for any `--jobs`.
#[test]
fn mitigated_report_is_identical_across_worker_counts() {
    let scenario = bounded_ddos_scenario(2024).with_mitigation(MitigationPolicy::paper_default());
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            Fleet::new(scenario.clone())
                .with_parallelism(Parallelism::Fixed(w))
                .run()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
    assert_eq!(runs[0].render(), runs[2].render());
    assert_eq!(runs[0].to_csv(), runs[2].to_csv());

    let count_runs: Vec<_> = [1usize, 8]
        .iter()
        .map(|&w| {
            Fleet::new(scenario.clone())
                .with_parallelism(Parallelism::Fixed(w))
                .run_counts()
        })
        .collect();
    assert_eq!(count_runs[0], count_runs[1]);
    assert_eq!(count_runs[0].to_csv(), count_runs[1].to_csv());
}

/// Per-stub telemetry labels: one shared hub, no collisions, and the
/// attacked stub's alarm counter is attributable by CIDR label.
#[test]
fn fleet_telemetry_labels_metrics_per_stub() {
    let scenario = ddos_scenario(11);
    let attacked_stub = scenario.stubs[1].stub().to_string();
    let clean_stub = scenario.stubs[0].stub().to_string();
    let hub = Arc::new(Telemetry::new());
    let report = Fleet::new(scenario).with_telemetry(Arc::clone(&hub)).run();
    assert!(report.stubs[1].implicated);

    let snap = hub.snapshot();
    // Fleet agents carry both identity labels: the stub CIDR and the
    // detection strategy they run (the scenario default here).
    let attacked = [("detector", "syndog"), ("stub", attacked_stub.as_str())];
    let clean = [("detector", "syndog"), ("stub", clean_stub.as_str())];
    let alarms_attacked = snap
        .counter("syndog_alarms_total", &attacked)
        .expect("attacked stub registered");
    assert!(
        alarms_attacked >= 1,
        "attacked stub raised {alarms_attacked}"
    );
    let alarms_clean = snap
        .counter("syndog_alarms_total", &clean)
        .expect("clean stub registered");
    assert_eq!(alarms_clean, 0);
    let periods_clean = snap
        .counter("syndog_periods_total", &clean)
        .expect("clean stub counted periods");
    assert_eq!(periods_clean, report.stubs[0].periods);
}
