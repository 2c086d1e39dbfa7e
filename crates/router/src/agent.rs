//! The SYN-dog software agent: router + detector + alarms.
//!
//! [`SynDogAgent`] is the deployable unit the paper installs at a leaf
//! router: it owns a [`LeafRouter`] (the two sniffers and period clock)
//! and an [`AnyDetector`] (the paper's normalization + CUSUM by default,
//! or any other [`syndog::strategy`] pick), and turns a packet or record
//! stream into a list of [`Alarm`]s. Because the agent sits at the first
//! mile, an alarm *is* localization to the stub network; a
//! [`SourceLocator`](crate::locate::SourceLocator) in the record loop's
//! hook then narrows it to a host.

use std::sync::Arc;

use syndog::{AnyDetector, Detection, DetectorKind, PeriodSignals, SynDogConfig};
use syndog_net::Ipv4Net;
use syndog_sim::{SimDuration, SimTime};
use syndog_telemetry::Telemetry;
use syndog_traffic::trace::{Direction, Trace, TraceRecord};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::mitigate::{MitigationDecision, MitigationEngine, MitigationPolicy};
use crate::router::{LeafRouter, SpanRule};
use crate::source::FrameSource;
use crate::telemetry::{AgentTelemetry, MitigationTelemetry};

/// A raised flooding alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// Observation period index at which `y_n` crossed the threshold.
    pub period: u64,
    /// Simulated time of the period's end (when the decision was made).
    pub time: SimTime,
    /// The statistic value that crossed.
    pub statistic: f64,
}

/// A complete SYN-dog installation at one leaf router.
#[derive(Debug, Clone)]
pub struct SynDogAgent {
    router: LeafRouter,
    detector: AnyDetector,
    detections: Vec<Detection>,
    alarms: Vec<Alarm>,
    telemetry: Option<AgentTelemetry>,
    mitigation: Option<MitigationEngine>,
    mitigation_telemetry: Option<MitigationTelemetry>,
    /// Absolute period index of the detector's period 0. The detector's
    /// own indices restart at 0 on [`SynDogAgent::replace_detector`] while
    /// the router clock keeps running; alarm timestamps must use
    /// `period_base + detection.period` or they dilate after a swap.
    period_base: u64,
}

impl SynDogAgent {
    /// Creates an agent for a stub network with the given detector
    /// configuration; the observation period comes from the configuration.
    /// The strategy is the paper's [`DetectorKind::Syndog`]; use
    /// [`SynDogAgent::with_detector`] to install a different one.
    pub fn new(stub: Ipv4Net, config: SynDogConfig) -> Self {
        Self::with_detector(stub, DetectorKind::Syndog.build(config))
    }

    /// Creates an agent running an arbitrary detection strategy; the
    /// observation period comes from the strategy's configuration.
    pub fn with_detector(stub: Ipv4Net, detector: AnyDetector) -> Self {
        let period = SimDuration::from_secs_f64(detector.config().observation_period_secs);
        SynDogAgent {
            router: LeafRouter::new(stub, period),
            detector,
            detections: Vec::new(),
            alarms: Vec::new(),
            telemetry: None,
            mitigation: None,
            mitigation_telemetry: None,
            period_base: 0,
        }
    }

    /// Attaches a telemetry hub: every subsequent period close reports
    /// detector series, alarm transitions, and per-interface sniffer
    /// tallies into it (see [`crate::telemetry`] for the series names).
    pub fn set_telemetry(&mut self, hub: Arc<Telemetry>) {
        self.telemetry = Some(AgentTelemetry::new(hub));
        self.sync_mitigation_telemetry();
    }

    /// Builder-style variant of [`SynDogAgent::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, hub: Arc<Telemetry>) -> Self {
        self.set_telemetry(hub);
        self
    }

    /// Attaches a telemetry hub with this agent's stub prefix and
    /// detection strategy as `stub="<cidr>"` / `detector="<name>"` labels
    /// on every per-agent series, so fleets of agents — even ones running
    /// different strategies over the same stub — can share one hub without
    /// colliding (e.g.
    /// `syndog_alarms_total{detector="syndog",stub="128.3.0.0/16"}`).
    pub fn set_stub_telemetry(&mut self, hub: Arc<Telemetry>) {
        let stub = self.router.stub().to_string();
        let detector = self.detector.kind().name();
        self.telemetry = Some(AgentTelemetry::with_labels(
            hub,
            &[("stub", &stub), ("detector", detector)],
        ));
        self.sync_mitigation_telemetry();
    }

    /// Attaches *pre-registered* telemetry handles without touching the
    /// registry. [`AgentTelemetry::with_labels`] takes the registry's
    /// construction lock once per series; a fleet spinning up thousands
    /// of agents inside its parallel runner must not pay (or serialize
    /// on) that per stub, so the runner registers one bundle per label
    /// set up-front and hands every agent a clone through here.
    ///
    /// `mitigation` should carry handles registered under the same
    /// labels when this agent has an armed engine; it is ignored (not
    /// registered later) when no engine is armed, mirroring
    /// [`SynDogAgent::set_telemetry`]'s composition rules.
    pub fn set_prepared_telemetry(
        &mut self,
        telemetry: AgentTelemetry,
        mitigation: Option<MitigationTelemetry>,
    ) {
        self.telemetry = Some(telemetry);
        self.mitigation_telemetry = if self.mitigation.is_some() {
            mitigation
        } else {
            None
        };
    }

    /// Arms source-end mitigation: the agent gains a
    /// [`MitigationEngine`] that engages keyed SYN throttles when the
    /// detector's statistic crosses the threshold and releases them by
    /// hysteresis (see [`crate::mitigate`]). The record-level paths
    /// ([`SynDogAgent::filter_record`]) drop traffic per keyed bucket;
    /// [`SynDogAgent::close_count_period`] sheds aggregate SYN excess; and
    /// [`SynDogAgent::observe_period`] alone only tracks engage/release
    /// posture.
    pub fn set_mitigation(&mut self, policy: MitigationPolicy) {
        self.mitigation = Some(MitigationEngine::new(
            self.router.stub(),
            self.detector.config(),
            policy,
        ));
        self.sync_mitigation_telemetry();
    }

    /// Builder-style variant of [`SynDogAgent::set_mitigation`].
    #[must_use]
    pub fn with_mitigation(mut self, policy: MitigationPolicy) -> Self {
        self.set_mitigation(policy);
        self
    }

    /// The mitigation engine, if one is armed.
    pub fn mitigation(&self) -> Option<&MitigationEngine> {
        self.mitigation.as_ref()
    }

    /// (Re)registers the `syndog_mitigation_*` series whenever both a hub
    /// and an engine are attached, under the agent telemetry's labels —
    /// so `set_mitigation` and `set_*_telemetry` compose in either order.
    fn sync_mitigation_telemetry(&mut self) {
        self.mitigation_telemetry = match (&self.telemetry, &self.mitigation) {
            (Some(telemetry), Some(_)) => {
                let labels: Vec<(&str, &str)> = telemetry
                    .labels()
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                Some(MitigationTelemetry::with_labels(telemetry.hub(), &labels))
            }
            _ => None,
        };
    }

    /// The underlying router.
    pub fn router(&self) -> &LeafRouter {
        &self.router
    }

    /// The underlying detector.
    pub fn detector(&self) -> &AnyDetector {
        &self.detector
    }

    /// Every per-period detection record so far (the `y_n` series of
    /// Figures 5, 7, 8, 9).
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Every alarm raised so far.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// The first alarm, if any — detection time measurements key off this.
    pub fn first_alarm(&self) -> Option<Alarm> {
        self.alarms.first().copied()
    }

    /// Absolute period index the detector's period 0 corresponds to
    /// (nonzero after [`SynDogAgent::replace_detector`] or a checkpoint
    /// restore).
    pub fn period_base(&self) -> u64 {
        self.period_base
    }

    /// Feeds one pre-aggregated period sample directly to the detector
    /// (bypassing the router), for count-level experiments.
    pub fn observe_period(&mut self, sample: PeriodSignals) -> Detection {
        // Timing is telemetry-only: keep the bare hot path syscall-free.
        let close_started = self.telemetry.is_some().then(std::time::Instant::now);
        let detection = self.detector.observe(sample);
        // Alarm timestamps are router time, not detector time: offset the
        // detector's (resettable) period index by the base.
        let absolute_period = self.period_base + detection.period;
        if detection.alarm {
            let period_len = self.router.period();
            self.alarms.push(Alarm {
                period: detection.period,
                time: SimTime::ZERO + period_len * (absolute_period + 1),
                statistic: detection.statistic,
            });
        }
        self.detections.push(detection);
        if let Some(engine) = &mut self.mitigation {
            engine.on_detection(&detection, absolute_period);
            if let Some(mitigation_telemetry) = &mut self.mitigation_telemetry {
                mitigation_telemetry.sync(engine);
            }
        }
        if let Some(telemetry) = &mut self.telemetry {
            let end_secs = self.router.period().as_secs_f64() * (absolute_period + 1) as f64;
            telemetry.record_period(
                sample,
                &detection,
                end_secs,
                close_started
                    .expect("timer started whenever telemetry is attached")
                    .elapsed()
                    .as_micros() as u64,
            );
            telemetry.sync_sniffers(
                self.router.sniffer(Direction::Outbound),
                self.router.sniffer(Direction::Inbound),
            );
        }
        detection
    }

    /// Closes one period for a count-level caller, which has per-period
    /// counts but no records for keyed buckets to judge:
    /// [`SynDogAgent::observe_period`], then, with mitigation armed,
    /// [`MitigationEngine::count_throttle`] sheds the period's SYN excess
    /// over `K̄ + allowance`. Returns the detection and the SYNs shed.
    pub fn close_count_period(&mut self, sample: PeriodSignals) -> (Detection, u64) {
        let detection = self.observe_period(sample);
        let Some(engine) = &mut self.mitigation else {
            return (detection, 0);
        };
        let shed = engine.count_throttle(&detection, sample.syn);
        if let Some(mitigation_telemetry) = &mut self.mitigation_telemetry {
            mitigation_telemetry.sync(engine);
        }
        (detection, shed)
    }

    /// Runs a [`FrameSource`] (a pcap capture) through router and
    /// detector, closing periods through
    /// [`LeafRouter::ingest`](crate::router::LeafRouter::ingest). A stream
    /// declares no end, so the period holding the last frame stays open;
    /// [`SynDogAgent::close_periods_to`] closes it.
    ///
    /// # Errors
    ///
    /// Propagates source I/O errors.
    pub fn run_source<S: FrameSource>(
        &mut self,
        source: S,
    ) -> Result<Vec<Detection>, syndog_net::NetError> {
        let mut samples = Vec::new();
        self.router.ingest(source, &mut samples)?;
        Ok(samples
            .into_iter()
            .map(|s| self.observe_period(s))
            .collect())
    }

    /// Runs a whole trace through router, detector and (when armed) the
    /// mitigation engine: [`SynDogAgent::run_trace_with`] over its records
    /// and declared duration, without a hook.
    pub fn run_trace(&mut self, trace: &Trace) -> Vec<Detection> {
        let records = trace.records().iter().copied();
        self.run_trace_with(records, Some(trace.duration()), |_, _, _| {})
    }

    /// The record loop, for any record stream: every record the span
    /// rule of `span` admits (see [`crate::router`]) goes, in stream
    /// order, through [`SynDogAgent::filter_record`] (so an armed engine
    /// judges it; a record behind the clock counts in the open period and
    /// as late, [`LeafRouter::late`]) and then to `on_record` with the
    /// agent and its decision. When the stream ends, the periods up to the rule's last
    /// close. Returns the detections this run closed.
    pub fn run_trace_with<I, F>(
        &mut self,
        records: I,
        span: Option<SimDuration>,
        mut on_record: F,
    ) -> Vec<Detection>
    where
        I: IntoIterator<Item = TraceRecord>,
        F: FnMut(&SynDogAgent, &TraceRecord, MitigationDecision),
    {
        let first = self.detections.len();
        let mut span = SpanRule::new(span, self.router.period());
        for record in records {
            if span.admits(record.time) {
                let decision = self.filter_record(&record);
                on_record(self, &record, decision);
            }
        }
        self.close_periods_to(span.last(self.router.current_period()));
        self.detections[first..].to_vec()
    }

    /// Streams one record through the router, closing periods (and running
    /// the detector) as simulated time passes, and through the mitigation
    /// engine: the record is always counted (the detector measures the
    /// offered load, so throttling cannot drain the statistic that
    /// justifies it — see [`crate::mitigate`]), then judged. Without an
    /// armed engine the decision is [`MitigationDecision::Forward`]. The
    /// period clock only moves forward: a record older than the open
    /// period (reordered or jittered) is counted in the open period.
    pub fn filter_record(&mut self, record: &TraceRecord) -> MitigationDecision {
        for _ in 0..self.router.periods_due(record.time) {
            let sample = self.router.take_period_sample();
            self.observe_period(sample);
        }
        self.router.observe_record(record);
        match &mut self.mitigation {
            Some(engine) => engine.process(record),
            None => MitigationDecision::Forward,
        }
    }

    /// Closes every period up to (but not including) absolute period
    /// `last`, running the detector on each — squares a streamed run off
    /// to a declared span (empty trailing periods included — silence is
    /// data).
    pub fn close_periods_to(&mut self, last: u64) {
        while self.router.current_period() < last {
            let sample = self.router.take_period_sample();
            self.observe_period(sample);
        }
    }

    /// Swaps in a new detection strategy at a period boundary — the
    /// serve daemon's config hot-reload path. The old detector's period
    /// count folds into the period base so alarm timestamps stay in
    /// router time; the new detector learns its baseline from scratch
    /// (a changed strategy or threshold invalidates the old `K̄`).
    /// Recorded detections and alarms are history and are kept. An armed
    /// mitigation engine is *not* rebuilt: releasing engaged throttles
    /// because an operator tweaked a threshold would reopen the tap
    /// mid-attack; disarm explicitly with
    /// [`SynDogAgent::clear_mitigation`] if that is intended.
    pub fn replace_detector(&mut self, detector: AnyDetector) {
        self.period_base += self.detector.periods_observed();
        self.detector = detector;
    }

    /// Disarms mitigation, releasing every engaged throttle immediately.
    pub fn clear_mitigation(&mut self) {
        self.mitigation = None;
        self.mitigation_telemetry = None;
    }

    /// Bounds the recorded detection/alarm history to the most recent
    /// `keep` entries of each, returning how many records were dropped.
    /// A daemon closing periods for sim-weeks must not grow without
    /// bound; long-lived aggregates (alarm totals, first-alarm time)
    /// belong to the caller, tallied before trimming.
    pub fn trim_history(&mut self, keep: usize) -> usize {
        let trim = |list: &mut Vec<_>| {
            let excess = list.len().saturating_sub(keep);
            list.drain(..excess);
            excess
        };
        let dropped = trim(&mut self.detections);
        let excess = self.alarms.len().saturating_sub(keep);
        self.alarms.drain(..excess);
        dropped + excess
    }

    /// Captures the agent's full detection state — detector (learned `K̄`,
    /// CUSUM statistic), router period clock, pending sniffer counts,
    /// detection series and alarms — as a [`Checkpoint`]. Restoring it
    /// with [`SynDogAgent::restore`] and feeding the remainder of a trace
    /// reproduces an uninterrupted run exactly.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(
            &self.router,
            self.period_base,
            &self.detector,
            &self.detections,
            &self.alarms,
            self.mitigation.as_ref(),
        )
    }

    /// Rebuilds an agent from a [`Checkpoint`]. Telemetry is not part of
    /// the checkpoint; attach a hub afterwards if needed.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::InvalidState`] when the checkpoint's
    /// router state is unusable (bad stub prefix, zero period, wrong
    /// per-kind tally arity).
    pub fn restore(checkpoint: &Checkpoint) -> Result<SynDogAgent, CheckpointError> {
        Ok(SynDogAgent {
            router: checkpoint.restore_router()?,
            detector: checkpoint.detector.clone(),
            detections: checkpoint.detections.clone(),
            alarms: checkpoint.alarms.iter().map(|a| a.to_alarm()).collect(),
            telemetry: None,
            mitigation: checkpoint.restore_mitigation()?,
            mitigation_telemetry: None,
            period_base: checkpoint.period_base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_attack::SynFlood;
    use syndog_net::SegmentKind;
    use syndog_sim::SimRng;
    use syndog_traffic::sites::{SiteProfile, OBSERVATION_PERIOD};
    use syndog_traffic::Direction;

    fn sig(syn: u64, synack: u64) -> PeriodSignals {
        PeriodSignals {
            syn,
            synack,
            fin: 0,
            rst: 0,
        }
    }

    #[test]
    fn clean_site_trace_raises_no_alarms() {
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(31);
        let trace = site.generate_trace(&mut rng);
        let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
        let detections = agent.run_trace(&trace);
        assert_eq!(detections.len(), site.periods());
        assert!(agent.alarms().is_empty(), "false alarm on clean traffic");
        assert!(agent.first_alarm().is_none());
    }

    #[test]
    fn flooded_site_trace_alarms_within_expected_delay() {
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(32);
        let mut trace = site.generate_trace(&mut rng);
        // 10 SYN/s at Auckland: the paper's Table 3 says detection in <1–2
        // periods.
        let flood = SynFlood::constant(
            10.0,
            SimTime::from_secs(40 * 20),
            SimDuration::from_secs(600),
            "192.0.2.80:80".parse().unwrap(),
        );
        trace.merge(&flood.generate_trace(&mut rng));
        let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
        agent.run_trace(&trace);
        let alarm = agent.first_alarm().expect("flood must be detected");
        let delay = alarm.period.saturating_sub(40);
        assert!(delay <= 3, "detected after {delay} periods");
        // The alarm time is the end of the alarming period.
        assert_eq!(
            alarm.time,
            SimTime::ZERO + OBSERVATION_PERIOD * (alarm.period + 1)
        );
    }

    #[test]
    fn record_streaming_matches_batch_run() {
        let site = SiteProfile::lbl();
        let mut rng = SimRng::seed_from_u64(33);
        let trace = site.generate_trace(&mut rng);
        let mut batch = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
        batch.run_trace(&trace);
        let mut streaming = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
        for record in trace.records() {
            streaming.filter_record(record);
        }
        // The streaming agent hasn't closed the final period(s) yet; the
        // batch agent has. Compare the common prefix.
        let n = streaming.detections().len();
        assert!(n > 0);
        assert_eq!(&batch.detections()[..n], streaming.detections());
    }

    #[test]
    fn run_trace_lets_an_armed_engine_judge_every_record() {
        use crate::mitigate::KeyMode;
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(31);
        let mut trace = site.generate_trace(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::from_secs(200),
            SimDuration::from_secs(300),
            "199.0.0.80:80".parse().unwrap(),
        )
        .with_fp(syndog_traffic::load::attack_fingerprint().to_bits());
        trace.merge(&flood.generate_trace(&mut rng));
        let armed = || {
            SynDogAgent::new(site.stub(), SynDogConfig::paper_default()).with_mitigation(
                MitigationPolicy::paper_default().with_key_mode(KeyMode::Fingerprint),
            )
        };
        let mut looped = armed();
        let period = looped.router().period();
        let last = site.periods() as u64;
        for record in trace.records() {
            if record.time.period_index(period) < last {
                looped.filter_record(record);
            }
        }
        looped.close_periods_to(last);
        let mut run = armed();
        run.run_trace(&trace);

        assert_eq!(run.detections(), looped.detections());
        let (engine, expected) = (run.mitigation().unwrap(), looped.mitigation().unwrap());
        assert_eq!(engine.engaged_at(), expected.engaged_at());
        assert_eq!(engine.released_at(), expected.released_at());
        assert_eq!(engine.stats(), expected.stats());
        assert!(engine.stats().throttled_syns > 0, "{:?}", engine.stats());
    }

    #[test]
    fn observe_period_records_alarm_metadata() {
        let stub: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
        agent.observe_period(sig(100, 100));
        // A massive relative surge alarms immediately.
        let d = agent.observe_period(sig(400, 100));
        assert!(d.alarm);
        let alarm = agent.first_alarm().unwrap();
        assert_eq!(alarm.period, 1);
        assert_eq!(alarm.time, SimTime::from_secs(40));
        assert!(alarm.statistic >= 1.05);
    }

    #[test]
    fn replace_detector_folds_periods_into_the_base_and_keeps_history() {
        let stub: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
        agent.observe_period(sig(100, 100));
        let d = agent.observe_period(sig(400, 100));
        assert!(d.alarm);
        assert_eq!(agent.detector().kind(), syndog::DetectorKind::Syndog);

        // Hot-swap to the EWMA strategy at a period boundary.
        agent.replace_detector(
            syndog::DetectorKind::Ewma.build(SynDogConfig::paper_default().with_threshold(2.0)),
        );
        assert_eq!(agent.detector().kind(), syndog::DetectorKind::Ewma);
        assert_eq!(agent.period_base(), 2);
        // History survives the swap.
        assert_eq!(agent.detections().len(), 2);
        assert_eq!(agent.alarms().len(), 1);
        // New observations land after the swap point in router time: the
        // new detector's period 0 is absolute period 2, so an alarm it
        // raises is stamped at the end of absolute period 2 or later.
        let d = agent.observe_period(sig(100, 100));
        assert_eq!(d.period, 0);
        assert_eq!(agent.detections().len(), 3);
    }

    #[test]
    fn clear_mitigation_releases_engaged_throttles() {
        let stub: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default())
            .with_mitigation(MitigationPolicy::paper_default());
        agent.observe_period(sig(100, 100));
        for _ in 0..4 {
            agent.observe_period(sig(400, 100));
        }
        assert!(agent.mitigation().unwrap().is_engaged());
        agent.clear_mitigation();
        assert!(agent.mitigation().is_none());
        // Re-arming starts from a clean, disengaged engine.
        agent.set_mitigation(MitigationPolicy::paper_default());
        assert!(!agent.mitigation().unwrap().is_engaged());
    }

    #[test]
    fn trim_history_keeps_the_most_recent_records() {
        let stub: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
        agent.observe_period(sig(100, 100));
        for _ in 0..6 {
            agent.observe_period(sig(400, 100));
        }
        assert_eq!(agent.detections().len(), 7);
        let alarms_before = agent.alarms().len();
        assert!(alarms_before >= 1);
        let last = *agent.detections().last().unwrap();
        let dropped = agent.trim_history(3);
        assert_eq!(agent.detections().len(), 3);
        assert!(agent.alarms().len() <= 3);
        assert_eq!(
            dropped,
            7 - 3 + alarms_before.saturating_sub(3),
            "dropped count covers both lists"
        );
        // The newest records survive.
        assert_eq!(*agent.detections().last().unwrap(), last);
        // Trimming to a larger budget than held is a no-op.
        assert_eq!(agent.trim_history(100), 0);
        assert_eq!(agent.detections().len(), 3);
    }

    #[test]
    fn telemetry_reports_per_period_series_and_alarms() {
        use syndog_telemetry::FieldValue;
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(32);
        let mut trace = site.generate_trace(&mut rng);
        let flood = SynFlood::constant(
            10.0,
            SimTime::from_secs(40 * 20),
            SimDuration::from_secs(600),
            "192.0.2.80:80".parse().unwrap(),
        );
        trace.merge(&flood.generate_trace(&mut rng));
        let hub = Arc::new(Telemetry::new());
        let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default())
            .with_telemetry(Arc::clone(&hub));
        agent.run_trace(&trace);

        let snap = hub.snapshot();
        assert_eq!(
            snap.counter("syndog_periods_total", &[]).unwrap_or(0),
            agent.detections().len() as u64
        );
        // The telemetry totals must equal the trace's own period binning.
        let syn_total: u64 = trace
            .period_counts(agent.router().period())
            .iter()
            .map(|s| s.syn)
            .sum();
        assert_eq!(
            snap.counter("syndog_syn_total", &[]).unwrap_or(0),
            syn_total
        );
        // The flood ends mid-trace, so the CUSUM drains and the alarm
        // clears: the counter counts rising edges, the gauge tracks the
        // final state.
        let rising_edges = agent
            .detections()
            .windows(2)
            .filter(|w| !w[0].alarm && w[1].alarm)
            .count() as u64
            + u64::from(agent.detections()[0].alarm);
        assert!(rising_edges >= 1);
        assert_eq!(
            snap.counter("syndog_alarms_total", &[]).unwrap_or(0),
            rising_edges
        );
        assert_eq!(
            snap.gauge("syndog_alarm_active"),
            Some(f64::from(u8::from(
                agent.detections().last().unwrap().alarm
            )))
        );
        assert_eq!(
            snap.gauge("syndog_cusum_statistic"),
            Some(agent.detections().last().unwrap().statistic)
        );
        // Per-interface segment tallies flow through the sniffer sync.
        assert!(
            snap.counter(
                "syndog_segments_total",
                &[("interface", "outbound"), ("kind", "syn")]
            )
            .unwrap_or(0)
                > 0
        );
        // Events: one period_closed per period (modulo ring capacity) and
        // the alarm_raised transition stamped with the alarm period.
        let raised = snap
            .events
            .iter()
            .find(|e| e.kind == "alarm_raised")
            .expect("alarm_raised event emitted");
        let alarm = agent.first_alarm().unwrap();
        assert_eq!(raised.field("period"), Some(&FieldValue::U64(alarm.period)));
        assert!((raised.t - alarm.time.as_secs_f64()).abs() < 1e-9);
        let close_hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "syndog_period_close_micros")
            .expect("close-latency histogram registered");
        assert_eq!(close_hist.count, agent.detections().len() as u64);
    }

    #[test]
    fn untelemetered_agent_matches_telemetered_agent() {
        // Instrumentation must be observation-only: identical detections
        // with and without a hub attached.
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(34);
        let trace = site.generate_trace(&mut rng);
        let mut plain = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
        let mut wired = SynDogAgent::new(site.stub(), SynDogConfig::paper_default())
            .with_telemetry(Arc::new(Telemetry::new()));
        assert_eq!(plain.run_trace(&trace), wired.run_trace(&trace));
    }

    #[test]
    fn alarm_time_stays_in_router_time_after_replace_detector() {
        // Regression: Alarm::time was computed from the detector's period
        // index alone, so after a detector swap (the new detector restarts
        // at period 0, the router clock keeps running) alarm timestamps
        // snapped back to the start of the trace.
        let stub: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
        let quiet = sig(100, 100);
        agent.observe_period(quiet);
        agent.observe_period(quiet);
        agent.replace_detector(DetectorKind::Syndog.build(SynDogConfig::paper_default()));
        assert_eq!(agent.period_base(), 2);
        agent.observe_period(quiet);
        let d = agent.observe_period(sig(400, 100));
        assert!(d.alarm);
        let alarm = agent.first_alarm().unwrap();
        // Detector-relative index restarts…
        assert_eq!(alarm.period, 1);
        // …but the timestamp is the end of absolute period 3 (20s each):
        // 4 periods into the run, not 2.
        assert_eq!(alarm.time, SimTime::from_secs(80));
    }

    #[test]
    fn the_record_loop_hands_the_hook_the_agent_and_counts_late_records() {
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(32);
        let mut trace = site.generate_trace(&mut rng);
        trace.merge(
            &SynFlood::constant(
                10.0,
                SimTime::from_secs(40 * 20),
                SimDuration::from_secs(600),
                "192.0.2.80:80".parse().unwrap(),
            )
            .generate_trace(&mut rng),
        );
        // Every 50th record arrives 1,000 records late.
        let mut late = Vec::new();
        let mut arrivals = Vec::new();
        for (i, record) in trace.records().iter().enumerate() {
            if i % 50 == 49 {
                late.push((i + 1_000, *record));
            } else {
                arrivals.push(*record);
            }
            while late.first().is_some_and(|&(due, _)| due <= i) {
                arrivals.push(late.remove(0).1);
            }
        }
        arrivals.extend(late.into_iter().map(|(_, record)| record));
        assert_eq!(arrivals.len(), trace.len());

        let mut agent = SynDogAgent::new(site.stub(), SynDogConfig::paper_default());
        let mut alarmed_records = 0;
        agent.run_trace_with(arrivals, Some(trace.duration()), |agent, _, _| {
            alarmed_records += u64::from(agent.first_alarm().is_some());
        });
        assert!(agent.router().late() > 0);
        assert_eq!(agent.detections().len(), site.periods());
        assert!(
            alarmed_records > 0,
            "the hook sees the alarm as it is raised"
        );
    }

    #[test]
    fn checkpoint_round_trips_agent_state() {
        let stub: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
        agent.observe_period(sig(100, 100));
        agent.observe_period(sig(400, 100));
        let checkpoint = agent.checkpoint();
        let json = checkpoint.to_json();
        let parsed = Checkpoint::from_json(&json).unwrap();
        let restored = SynDogAgent::restore(&parsed).unwrap();
        assert_eq!(restored.detections(), agent.detections());
        assert_eq!(restored.alarms(), agent.alarms());
        assert_eq!(restored.period_base(), agent.period_base());
        assert_eq!(restored.detector(), agent.detector());
        assert_eq!(
            restored.router().current_period(),
            agent.router().current_period()
        );
        assert_eq!(restored.router().stub(), agent.router().stub());
        assert_eq!(restored.router().period(), agent.router().period());
        assert_eq!(
            restored.router().sniffer(Direction::Outbound),
            agent.router().sniffer(Direction::Outbound)
        );
    }

    #[test]
    fn trinoo_style_udp_flood_is_invisible() {
        // SYN-dog only watches TCP handshake signals; a UDP flood (Trinoo)
        // must not alarm it. NonTcp records pass through the sniffers
        // untallied.
        let stub: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
        let mut trace = Trace::new(SimDuration::from_secs(200));
        for i in 0..10_000 {
            trace.push(TraceRecord::new(
                SimTime::from_millis_helper(i * 20),
                Direction::Outbound,
                SegmentKind::NonTcp,
                "10.0.0.5:9999".parse().unwrap(),
                "192.0.2.80:80".parse().unwrap(),
            ));
        }
        agent.run_trace(&trace);
        assert!(agent.alarms().is_empty());
    }

    // Small helper: SimTime has no from_millis; keep the test readable.
    trait FromMillis {
        fn from_millis_helper(ms: u64) -> SimTime;
    }
    impl FromMillis for SimTime {
        fn from_millis_helper(ms: u64) -> SimTime {
            SimTime::from_micros(ms * 1000)
        }
    }
}
