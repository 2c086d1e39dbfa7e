//! Telemetry wiring for the router crate: named series, pre-fetched.
//!
//! The discipline mirrors the one `syndog-telemetry` promises: metric
//! *registration* (name lookup, label sorting, a mutex) happens once, at
//! construction, and the handles are held as `Arc`s; the *record* path —
//! called from [`SynDogAgent::observe_period`] — is relaxed atomics only.
//! Events (`period_closed`, `alarm_raised`, `alarm_cleared`) fire at
//! period granularity, never per frame.
//!
//! Series registered here (the names the CI smoke test and dashboards
//! key on):
//!
//! | series | type | labels |
//! |---|---|---|
//! | `syndog_periods_total` | counter | |
//! | `syndog_syn_total` | counter | |
//! | `syndog_synack_total` | counter | |
//! | `syndog_alarms_total` | counter | |
//! | `syndog_alarm_active` | gauge | |
//! | `syndog_cusum_statistic` | gauge | |
//! | `syndog_normalized_delta` | gauge | |
//! | `syndog_period_close_micros` | histogram | |
//! | `syndog_segments_total` | counter | `interface`, `kind` |
//! | `syndog_frames_total` | counter | `interface` |
//! | `syndog_malformed_total` | counter | `interface` |
//! | `syndog_faults_total` | counter | `kind` |
//! | `syndog_mitigation_engaged` | gauge | |
//! | `syndog_mitigation_active_keys` | gauge | |
//! | `syndog_mitigation_engagements_total` | counter | |
//! | `syndog_mitigation_releases_total` | counter | |
//! | `syndog_mitigation_throttled_syns_total` | counter | |
//! | `syndog_mitigation_passed_syns_total` | counter | |
//! | `syndog_mitigation_collateral_syns_total` | counter | |
//! | `syndog_fingerprint_distinct` | gauge | |
//! | `syndog_fingerprint_entropy_bits` | gauge | |
//! | `syndog_fingerprint_attack_distinct` | gauge | |
//! | `syndog_fingerprint_exonerations_total` | counter | |
//!
//! Fleet deployments register the per-agent and per-interface series via
//! [`AgentTelemetry::with_labels`] with extra `stub="<cidr>"` and
//! `detector="<name>"` labels, so one hub can carry every stub's agent —
//! even several strategies watching the same stub — without collisions.
//!
//! [`SynDogAgent::observe_period`]: crate::agent::SynDogAgent::observe_period

use std::sync::Arc;

use syndog::{Detection, PeriodSignals};
use syndog_net::SegmentKind;
use syndog_telemetry::{Counter, FieldValue, Gauge, Histogram, Telemetry};
use syndog_traffic::Direction;

use crate::faults::FaultLedger;
use crate::mitigate::{MitigationEngine, MitigationStats};
use crate::sniffer::Sniffer;

/// A stable lowercase interface name for the `interface` label.
pub fn direction_label(direction: Direction) -> &'static str {
    match direction {
        Direction::Outbound => "outbound",
        Direction::Inbound => "inbound",
    }
}

/// Per-interface lifetime series, synced by delta against the sniffer's
/// own monotone tallies at each period close. Delta-tracking keeps the
/// sniffer itself telemetry-free: it stays the plain value type the
/// single-threaded paths clone and compare.
#[derive(Debug, Clone)]
struct InterfaceSeries {
    kinds: [Arc<Counter>; SegmentKind::ALL.len()],
    frames: Arc<Counter>,
    malformed: Arc<Counter>,
    last_kinds: [u64; SegmentKind::ALL.len()],
    last_frames: u64,
    last_malformed: u64,
}

impl InterfaceSeries {
    fn new(telemetry: &Telemetry, direction: Direction, extra: &[(&str, &str)]) -> Self {
        let interface = direction_label(direction);
        let registry = telemetry.registry();
        let with = |name: &str, base: &[(&str, &str)]| {
            let mut labels: Vec<(&str, &str)> = base.to_vec();
            labels.extend_from_slice(extra);
            registry.counter_with(name, &labels)
        };
        InterfaceSeries {
            kinds: SegmentKind::ALL.map(|kind| {
                with(
                    "syndog_segments_total",
                    &[("interface", interface), ("kind", kind.label())],
                )
            }),
            frames: with("syndog_frames_total", &[("interface", interface)]),
            malformed: with("syndog_malformed_total", &[("interface", interface)]),
            last_kinds: [0; SegmentKind::ALL.len()],
            last_frames: 0,
            last_malformed: 0,
        }
    }

    /// Publishes the sniffer's lifetime tallies as counter deltas.
    fn sync(&mut self, sniffer: &Sniffer) {
        for kind in SegmentKind::ALL {
            let seen = sniffer.kind_count(kind);
            self.kinds[kind.index()].add(seen - self.last_kinds[kind.index()]);
            self.last_kinds[kind.index()] = seen;
        }
        let frames = sniffer.frames_seen();
        self.frames.add(frames - self.last_frames);
        self.last_frames = frames;
        let malformed = sniffer.malformed();
        self.malformed.add(malformed - self.last_malformed);
        self.last_malformed = malformed;
    }
}

/// Telemetry handles for one detection pipeline (an agent): per-period
/// detector series plus per-interface sniffer tallies.
#[derive(Debug, Clone)]
pub struct AgentTelemetry {
    hub: Arc<Telemetry>,
    labels: Vec<(String, String)>,
    periods: Arc<Counter>,
    syn: Arc<Counter>,
    synack: Arc<Counter>,
    alarms: Arc<Counter>,
    alarm_active: Arc<Gauge>,
    cusum: Arc<Gauge>,
    normalized_delta: Arc<Gauge>,
    close_micros: Arc<Histogram>,
    outbound: InterfaceSeries,
    inbound: InterfaceSeries,
    alarm_was_active: bool,
}

impl AgentTelemetry {
    /// Registers every per-agent series on the hub and keeps the handles.
    pub fn new(hub: Arc<Telemetry>) -> Self {
        Self::with_labels(hub, &[])
    }

    /// Registers every per-agent series under extra labels. Fleet runs
    /// pass `[("stub", "<cidr>")]` so many agents can share one hub
    /// without their series colliding (e.g.
    /// `syndog_alarms_total{stub="128.3.0.0/16"}`); the labels also ride
    /// on the per-interface sniffer tallies.
    pub fn with_labels(hub: Arc<Telemetry>, labels: &[(&str, &str)]) -> Self {
        let registry = hub.registry();
        AgentTelemetry {
            periods: registry.counter_with("syndog_periods_total", labels),
            syn: registry.counter_with("syndog_syn_total", labels),
            synack: registry.counter_with("syndog_synack_total", labels),
            alarms: registry.counter_with("syndog_alarms_total", labels),
            alarm_active: registry.gauge_with("syndog_alarm_active", labels),
            cusum: registry.gauge_with("syndog_cusum_statistic", labels),
            normalized_delta: registry.gauge_with("syndog_normalized_delta", labels),
            close_micros: registry.histogram_with("syndog_period_close_micros", labels),
            outbound: InterfaceSeries::new(&hub, Direction::Outbound, labels),
            inbound: InterfaceSeries::new(&hub, Direction::Inbound, labels),
            alarm_was_active: false,
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            hub,
        }
    }

    /// The shared hub this agent reports into.
    pub fn hub(&self) -> &Arc<Telemetry> {
        &self.hub
    }

    /// The extra labels every series was registered under (empty unless
    /// constructed via [`AgentTelemetry::with_labels`]). Companion series
    /// (mitigation, faults) register under the same labels to stay
    /// attributable to the same agent.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// Records one closed observation period: the sample the detector
    /// consumed, its [`Detection`], and how long the close took.
    /// `period_end_secs` stamps the emitted events (simulated seconds).
    pub fn record_period(
        &mut self,
        sample: PeriodSignals,
        detection: &Detection,
        period_end_secs: f64,
        close_micros: u64,
    ) {
        self.periods.inc();
        self.syn.add(sample.syn);
        self.synack.add(sample.synack);
        self.cusum.set(detection.statistic);
        self.normalized_delta.set(detection.x);
        self.close_micros.record(close_micros);
        self.hub.events().emit(
            period_end_secs,
            "period_closed",
            [
                ("period", FieldValue::U64(detection.period)),
                ("syn", FieldValue::U64(sample.syn)),
                ("synack", FieldValue::U64(sample.synack)),
                ("x", FieldValue::F64(detection.x)),
                ("y", FieldValue::F64(detection.statistic)),
            ],
        );
        match (self.alarm_was_active, detection.alarm) {
            (false, true) => {
                self.alarms.inc();
                self.alarm_active.set(1.0);
                self.hub.events().emit(
                    period_end_secs,
                    "alarm_raised",
                    [
                        ("period", FieldValue::U64(detection.period)),
                        ("y", FieldValue::F64(detection.statistic)),
                    ],
                );
            }
            (true, false) => {
                self.alarm_active.set(0.0);
                self.hub.events().emit(
                    period_end_secs,
                    "alarm_cleared",
                    [
                        ("period", FieldValue::U64(detection.period)),
                        ("y", FieldValue::F64(detection.statistic)),
                    ],
                );
            }
            _ => {}
        }
        self.alarm_was_active = detection.alarm;
    }

    /// Publishes both sniffers' lifetime tallies (per-kind segments,
    /// frames, malformed) as counter deltas.
    pub fn sync_sniffers(&mut self, outbound: &Sniffer, inbound: &Sniffer) {
        self.outbound.sync(outbound);
        self.inbound.sync(inbound);
    }
}

/// Per-fault-kind counters for a [`FaultLedger`], published as
/// `syndog_faults_total{kind=...}` by delta against the last synced
/// ledger — the fault pass keeps its plain-value ledger and this struct
/// owns the telemetry coupling, mirroring the sniffer's per-interface
/// series split.
#[derive(Debug, Clone)]
pub struct FaultTelemetry {
    dropped: Arc<Counter>,
    duplicated: Arc<Counter>,
    reordered: Arc<Counter>,
    truncated: Arc<Counter>,
    corrupted: Arc<Counter>,
    jittered: Arc<Counter>,
    last: FaultLedger,
}

impl FaultTelemetry {
    /// Registers the per-kind fault counters on the hub.
    pub fn new(hub: &Telemetry) -> Self {
        let registry = hub.registry();
        let counter =
            |kind: &'static str| registry.counter_with("syndog_faults_total", &[("kind", kind)]);
        FaultTelemetry {
            dropped: counter("drop"),
            duplicated: counter("duplicate"),
            reordered: counter("reorder"),
            truncated: counter("truncate"),
            corrupted: counter("corrupt"),
            jittered: counter("jitter"),
            last: FaultLedger::default(),
        }
    }

    /// Publishes the ledger's tallies as counter deltas.
    pub fn sync(&mut self, ledger: &FaultLedger) {
        self.dropped.add(ledger.dropped - self.last.dropped);
        self.duplicated
            .add(ledger.duplicated - self.last.duplicated);
        self.reordered.add(ledger.reordered - self.last.reordered);
        self.truncated.add(ledger.truncated - self.last.truncated);
        self.corrupted.add(ledger.corrupted - self.last.corrupted);
        self.jittered.add(ledger.jittered - self.last.jittered);
        self.last = *ledger;
    }
}

/// Mitigation posture and decision accounting for one
/// [`MitigationEngine`], published as `syndog_mitigation_*` series by
/// delta against the engine's plain-value [`MitigationStats`] — the
/// engine itself stays telemetry-free and byte-comparable, like the
/// sniffers and the fault ledger.
#[derive(Debug, Clone)]
pub struct MitigationTelemetry {
    engaged: Arc<Gauge>,
    active_keys: Arc<Gauge>,
    engagements: Arc<Counter>,
    releases: Arc<Counter>,
    throttled: Arc<Counter>,
    passed: Arc<Counter>,
    collateral: Arc<Counter>,
    fp_distinct: Arc<Gauge>,
    fp_entropy: Arc<Gauge>,
    fp_attack_distinct: Arc<Gauge>,
    fp_exonerations: Arc<Counter>,
    last: MitigationStats,
}

impl MitigationTelemetry {
    /// Registers the mitigation series under extra labels (fleet runs pass
    /// the same `stub="<cidr>"` label as the agent's own series).
    pub fn with_labels(hub: &Telemetry, labels: &[(&str, &str)]) -> Self {
        let registry = hub.registry();
        MitigationTelemetry {
            engaged: registry.gauge_with("syndog_mitigation_engaged", labels),
            active_keys: registry.gauge_with("syndog_mitigation_active_keys", labels),
            engagements: registry.counter_with("syndog_mitigation_engagements_total", labels),
            releases: registry.counter_with("syndog_mitigation_releases_total", labels),
            throttled: registry.counter_with("syndog_mitigation_throttled_syns_total", labels),
            passed: registry.counter_with("syndog_mitigation_passed_syns_total", labels),
            collateral: registry.counter_with("syndog_mitigation_collateral_syns_total", labels),
            fp_distinct: registry.gauge_with("syndog_fingerprint_distinct", labels),
            fp_entropy: registry.gauge_with("syndog_fingerprint_entropy_bits", labels),
            fp_attack_distinct: registry.gauge_with("syndog_fingerprint_attack_distinct", labels),
            fp_exonerations: registry.counter_with("syndog_fingerprint_exonerations_total", labels),
            last: MitigationStats::default(),
        }
    }

    /// Publishes the engine's posture (gauges) and decision tallies
    /// (counter deltas). Call at period granularity, after
    /// [`MitigationEngine::on_detection`].
    pub fn sync(&mut self, engine: &MitigationEngine) {
        let stats = *engine.stats();
        self.engaged.set(f64::from(u8::from(engine.is_engaged())));
        self.active_keys.set(engine.keys().len() as f64);
        self.engagements
            .add(stats.engagements - self.last.engagements);
        self.releases.add(stats.releases - self.last.releases);
        self.throttled
            .add(stats.throttled_syns - self.last.throttled_syns);
        self.passed.add(stats.passed_syns - self.last.passed_syns);
        self.collateral
            .add(stats.collateral_syns - self.last.collateral_syns);
        self.fp_distinct
            .set(engine.fingerprints().distinct() as f64);
        self.fp_entropy.set(engine.fingerprints().entropy_bits());
        self.fp_attack_distinct
            .set(engine.locator().attack_fingerprints().distinct() as f64);
        self.fp_exonerations
            .add(stats.exonerated_periods - self.last.exonerated_periods);
        self.last = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(syn: u64, synack: u64) -> PeriodSignals {
        PeriodSignals {
            syn,
            synack,
            fin: 0,
            rst: 0,
        }
    }

    #[test]
    fn record_period_tracks_alarm_transitions() {
        let hub = Arc::new(Telemetry::new());
        let mut agent = AgentTelemetry::new(Arc::clone(&hub));
        let quiet = Detection {
            period: 0,
            delta: 0.0,
            k_average: 1.0,
            x: 0.0,
            statistic: 0.0,
            alarm: false,
        };
        let loud = Detection {
            statistic: 2.0,
            alarm: true,
            period: 1,
            ..quiet
        };
        agent.record_period(sig(5, 5), &quiet, 20.0, 10);
        agent.record_period(sig(50, 5), &loud, 40.0, 10);
        // Still alarming: no second alarm_raised event or counter bump.
        agent.record_period(sig(50, 5), &Detection { period: 2, ..loud }, 60.0, 10);
        agent.record_period(sig(5, 5), &Detection { period: 3, ..quiet }, 80.0, 10);
        let snap = hub.snapshot();
        assert_eq!(snap.counter("syndog_periods_total", &[]).unwrap_or(0), 4);
        assert_eq!(snap.counter("syndog_syn_total", &[]).unwrap_or(0), 110);
        assert_eq!(snap.counter("syndog_alarms_total", &[]).unwrap_or(0), 1);
        assert_eq!(snap.gauge("syndog_alarm_active"), Some(0.0));
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "alarm_raised").count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == "alarm_cleared").count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == "period_closed").count(), 4);
    }

    #[test]
    fn sniffer_sync_publishes_deltas_not_absolutes() {
        let hub = Arc::new(Telemetry::new());
        let mut agent = AgentTelemetry::new(Arc::clone(&hub));
        let mut outbound = Sniffer::default();
        let inbound = Sniffer::default();
        outbound.observe_kind(SegmentKind::Syn);
        outbound.observe_kind(SegmentKind::Syn);
        agent.sync_sniffers(&outbound, &inbound);
        // Syncing again without new traffic must not double-count.
        agent.sync_sniffers(&outbound, &inbound);
        outbound.observe_kind(SegmentKind::Ack);
        agent.sync_sniffers(&outbound, &inbound);
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter(
                "syndog_segments_total",
                &[("interface", "outbound"), ("kind", "syn")]
            ),
            Some(2)
        );
        assert_eq!(
            snap.counter(
                "syndog_segments_total",
                &[("interface", "outbound"), ("kind", "ack")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter("syndog_frames_total", &[("interface", "outbound")]),
            Some(3)
        );
    }

    #[test]
    fn stub_labeled_agents_do_not_collide_in_prometheus_export() {
        // Two agents on one hub, each labeled with its own stub prefix:
        // the export must carry two distinct label sets with their own
        // values, not one merged series.
        let hub = Arc::new(Telemetry::new());
        let mut lbl = AgentTelemetry::with_labels(Arc::clone(&hub), &[("stub", "128.3.0.0/16")]);
        let mut auck = AgentTelemetry::with_labels(Arc::clone(&hub), &[("stub", "130.216.0.0/16")]);
        let quiet = Detection {
            period: 0,
            delta: 0.0,
            k_average: 1.0,
            x: 0.0,
            statistic: 0.0,
            alarm: false,
        };
        let loud = Detection {
            statistic: 2.0,
            alarm: true,
            period: 1,
            ..quiet
        };
        lbl.record_period(sig(5, 5), &quiet, 20.0, 10);
        lbl.record_period(sig(50, 5), &loud, 40.0, 10);
        auck.record_period(sig(7, 7), &quiet, 20.0, 10);
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter("syndog_alarms_total", &[("stub", "128.3.0.0/16")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("syndog_alarms_total", &[("stub", "130.216.0.0/16")]),
            Some(0)
        );
        assert_eq!(
            snap.counter("syndog_syn_total", &[("stub", "128.3.0.0/16")]),
            Some(55)
        );
        assert_eq!(
            snap.counter("syndog_syn_total", &[("stub", "130.216.0.0/16")]),
            Some(7)
        );
        let prom = syndog_telemetry::ExportFormat::Prometheus.render(&snap);
        assert!(
            prom.contains(r#"syndog_alarms_total{stub="128.3.0.0/16"} 1"#),
            "missing labeled alarm series:\n{prom}"
        );
        assert!(
            prom.contains(r#"syndog_alarms_total{stub="130.216.0.0/16"} 0"#),
            "missing second stub's series:\n{prom}"
        );
        assert!(
            prom.contains(r#"syndog_periods_total{stub="128.3.0.0/16"} 2"#),
            "periods must stay per-stub:\n{prom}"
        );
        assert!(
            prom.contains(r#"syndog_periods_total{stub="130.216.0.0/16"} 1"#),
            "periods must stay per-stub:\n{prom}"
        );
    }

    #[test]
    fn detector_labeled_agents_do_not_collide_in_prometheus_export() {
        // Two strategies watching the same stub on one hub: the
        // detector="<name>" label must keep their series apart, mirroring
        // the stub="<cidr>" discipline above.
        let hub = Arc::new(Telemetry::new());
        let mut syndog = AgentTelemetry::with_labels(
            Arc::clone(&hub),
            &[("stub", "128.3.0.0/16"), ("detector", "syndog")],
        );
        let mut ewma = AgentTelemetry::with_labels(
            Arc::clone(&hub),
            &[("stub", "128.3.0.0/16"), ("detector", "ewma")],
        );
        let quiet = Detection {
            period: 0,
            delta: 0.0,
            k_average: 1.0,
            x: 0.0,
            statistic: 0.0,
            alarm: false,
        };
        let loud = Detection {
            statistic: 2.0,
            alarm: true,
            period: 1,
            ..quiet
        };
        syndog.record_period(sig(5, 5), &quiet, 20.0, 10);
        syndog.record_period(sig(50, 5), &loud, 40.0, 10);
        ewma.record_period(sig(5, 5), &quiet, 20.0, 10);
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter(
                "syndog_alarms_total",
                &[("stub", "128.3.0.0/16"), ("detector", "syndog")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "syndog_alarms_total",
                &[("stub", "128.3.0.0/16"), ("detector", "ewma")]
            ),
            Some(0)
        );
        let prom = syndog_telemetry::ExportFormat::Prometheus.render(&snap);
        assert!(
            prom.contains(r#"detector="syndog""#) && prom.contains(r#"detector="ewma""#),
            "both detector label sets must export:\n{prom}"
        );
        assert!(
            prom.contains(r#"syndog_periods_total{detector="syndog",stub="128.3.0.0/16"} 2"#)
                || prom
                    .contains(r#"syndog_periods_total{stub="128.3.0.0/16",detector="syndog"} 2"#),
            "per-detector period counts must stay separate:\n{prom}"
        );
    }

    #[test]
    fn fault_telemetry_publishes_deltas_not_absolutes() {
        let hub = Telemetry::new();
        let mut faults = FaultTelemetry::new(&hub);
        let mut ledger = FaultLedger {
            dropped: 3,
            reordered: 2,
            ..FaultLedger::default()
        };
        faults.sync(&ledger);
        // Re-syncing the same ledger must not double-count.
        faults.sync(&ledger);
        ledger.dropped = 5;
        ledger.jittered = 1;
        faults.sync(&ledger);
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter("syndog_faults_total", &[("kind", "drop")]),
            Some(5)
        );
        assert_eq!(
            snap.counter("syndog_faults_total", &[("kind", "reorder")]),
            Some(2)
        );
        assert_eq!(
            snap.counter("syndog_faults_total", &[("kind", "jitter")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("syndog_faults_total", &[("kind", "corrupt")]),
            Some(0)
        );
    }

    #[test]
    fn mitigation_telemetry_publishes_posture_and_deltas() {
        use crate::mitigate::MitigationPolicy;
        use syndog::SynDogConfig;

        let hub = Telemetry::new();
        let mut telemetry = MitigationTelemetry::with_labels(&hub, &[]);
        let mut engine = MitigationEngine::new(
            "128.1.0.0/16".parse().unwrap(),
            &SynDogConfig::paper_default(),
            MitigationPolicy::paper_default(),
        );
        let flood = Detection {
            period: 0,
            delta: 200.0,
            k_average: 100.0,
            x: 2.0,
            statistic: 2.0,
            alarm: true,
        };
        engine.on_detection(&flood, 0);
        telemetry.sync(&engine);
        // Re-syncing without new activity must not double-count.
        telemetry.sync(&engine);
        engine.count_throttle(&flood, 300);
        telemetry.sync(&engine);
        let snap = hub.snapshot();
        assert_eq!(snap.gauge("syndog_mitigation_engaged"), Some(1.0));
        assert_eq!(
            snap.counter("syndog_mitigation_engagements_total", &[])
                .unwrap_or(0),
            1
        );
        assert_eq!(
            snap.counter("syndog_mitigation_throttled_syns_total", &[])
                .unwrap_or(0),
            195
        );
        assert_eq!(
            snap.counter("syndog_mitigation_passed_syns_total", &[])
                .unwrap_or(0),
            105
        );
        assert_eq!(
            snap.counter("syndog_mitigation_collateral_syns_total", &[])
                .unwrap_or(0),
            0
        );
    }
}
