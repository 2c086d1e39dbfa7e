//! Fleet-of-agents deployment: one [`Scenario`], many stubs, one report.
//!
//! The paper's core deployment claim (§4.2) is *distributed*: a SYN-dog at
//! every leaf router, so that an alarm **is** localization to the flooding
//! stub, and a DDoS master that spreads its aggregate rate `V` over `A`
//! stub networks keeps each source at `f_i = V / A` — below a single
//! big-vantage detector's `f_min`, yet still above the per-stub bound of
//! the small networks it actually hides in. This module models that world:
//!
//! - [`Scenario`] — the declarative spec: stubs with CIDR prefixes, a
//!   per-stub [`SiteProfile`] workload, attack placement (optionally built
//!   from a [`DdosCampaign`]), optional faults, and one master seed.
//! - [`Fleet`] — the runner: one [`SynDogAgent`] per stub on a thread
//!   scope ([`syndog_sim::par`]), each driven by a seed derived purely
//!   from `(master_seed, stub index)` — so the run is bit-for-bit
//!   deterministic regardless of worker count.
//! - [`FleetReport`] — per-stub first-alarm time, detection delay, false
//!   alarms, which stub is implicated, and (trace-level runs) the suspect
//!   MAC from post-alarm [`SourceLocator`] accounting; cross-checkable
//!   against a `syndog-traceback` attack tree via
//!   [`FleetReport::topology_cross_check`].
//!
//! # Seed derivation
//!
//! Stub `i` draws its workload RNG from `derive_seed(master, 2·i)` and its
//! fault-injection seed from `derive_seed(master, 2·i + 1)`; the topology
//! cross-check tree uses the dedicated stream `u64::MAX`. [`derive_seed`]
//! is a SplitMix64 mix, so streams are statistically independent and the
//! whole fleet is a pure function of the master seed.
//!
//! # Memory model at scale
//!
//! The count-level paths are *streaming*: stub jobs return compact
//! [`StubRow`]s (a report row plus alarm-episode onsets, no per-period
//! state) that [`Fleet::fold_counts`] reduces strictly in stub-index
//! order via [`run_indexed_fold`]. In-flight state is bounded by the
//! worker count, not the fleet size, so one scenario can carry
//! 1,000–10,000 stubs in O(stubs) memory. The trace-level [`Fleet::run`]
//! and the detection-series-materializing
//! [`Fleet::run_counts_with_detections`] are kept for small fleets only.
//! The correlation tier above this module lives in [`crate::correlate`].

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;

use syndog::{Detection, DetectorKind, PeriodSignals, SynDogConfig};
use syndog_attack::{DdosCampaign, SynFlood};
use syndog_net::{Ipv4Net, MacAddr, SegmentKind};
use syndog_sim::par::{run_indexed, run_indexed_fold, Parallelism};
use syndog_sim::{SimRng, SimTime};
use syndog_telemetry::{LabelBudget, LabelMode, Telemetry};
use syndog_traceback::{AttackPath, RouterId};
use syndog_traffic::sites::{SiteProfile, OBSERVATION_PERIOD};
use syndog_traffic::trace::{Direction, Trace};

use crate::agent::SynDogAgent;
use crate::correlate::AlarmOnset;
use crate::episodes::{EpisodeEdge, EpisodeTracker};
use crate::faults::FaultSpec;
use crate::locate::{SourceLocator, Suspect};
use crate::mitigate::MitigationPolicy;
use crate::telemetry::{AgentTelemetry, MitigationTelemetry};

/// Derives an independent seed for stream `stream` of a master seed
/// (SplitMix64 finalizer over `master + (stream + 1)·γ`). Pure, so fleet
/// runs are deterministic for any work scheduling.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The derived-stream index of the topology cross-check tree (shared
/// with the [`crate::correlate`] tier, which cross-checks campaigns
/// against the same tree).
pub(crate) const TOPOLOGY_STREAM: u64 = u64::MAX;

/// One stub network in a scenario: a name, a workload, and optionally a
/// flooding source planted inside it.
#[derive(Debug, Clone)]
pub struct StubSpec {
    /// Display name (report rows, telemetry debugging).
    pub name: String,
    /// The background workload; its prefix (see [`SiteProfile::rehomed`])
    /// is the stub's CIDR.
    pub site: SiteProfile,
    /// A flooding slave inside this stub, if the scenario attacks it.
    pub attack: Option<SynFlood>,
}

impl StubSpec {
    /// A clean stub running only background traffic.
    pub fn clean(name: impl Into<String>, site: SiteProfile) -> Self {
        StubSpec {
            name: name.into(),
            site,
            attack: None,
        }
    }

    /// A stub hosting a flooding source.
    pub fn attacked(name: impl Into<String>, site: SiteProfile, flood: SynFlood) -> Self {
        StubSpec {
            name: name.into(),
            site,
            attack: Some(flood),
        }
    }

    /// The stub's CIDR prefix.
    pub fn stub(&self) -> Ipv4Net {
        self.site.stub()
    }
}

/// A declarative multi-stub scenario: what the fleet runs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (report header, experiment CSVs).
    pub name: String,
    /// The stubs, in report order. Stub `i` uses derived seed stream `2i`.
    pub stubs: Vec<StubSpec>,
    /// Detector configuration shared by every agent.
    pub config: SynDogConfig,
    /// Detection strategy every agent runs (see [`DetectorKind`]);
    /// defaults to the paper's [`DetectorKind::Syndog`].
    pub detector: DetectorKind,
    /// Optional fault injection applied to every stub's record stream
    /// (each stub gets its own derived fault seed).
    pub faults: Option<FaultSpec>,
    /// Optional source-end mitigation: every agent gets a
    /// [`MitigationEngine`](crate::mitigate::MitigationEngine) with this
    /// policy, so alarms install keyed SYN throttles (trace-level runs)
    /// or aggregate count-level shedding (count-level runs).
    pub mitigation: Option<MitigationPolicy>,
    /// The master seed every per-stub seed derives from.
    pub master_seed: u64,
}

impl Scenario {
    /// An empty scenario; push [`StubSpec`]s onto `stubs`.
    pub fn new(name: impl Into<String>, config: SynDogConfig, master_seed: u64) -> Self {
        Scenario {
            name: name.into(),
            stubs: Vec::new(),
            config,
            detector: DetectorKind::Syndog,
            faults: None,
            mitigation: None,
            master_seed,
        }
    }

    /// A one-stub scenario — the bench experiments' count-level trials
    /// build on this instead of hand-rolled wiring.
    pub fn single(
        name: impl Into<String>,
        site: SiteProfile,
        config: SynDogConfig,
        attack: Option<SynFlood>,
        master_seed: u64,
    ) -> Self {
        let mut scenario = Scenario::new(name, config, master_seed);
        let stub_name = site.name().to_string();
        scenario.stubs.push(StubSpec {
            name: stub_name,
            site,
            attack,
        });
        scenario
    }

    /// The synthetic CIDR prefix fleet stub `index` is homed in
    /// (public-routable space, so the ingress-filter spoof test keeps
    /// working). The first 256 stubs keep the historical
    /// `128.<index>.0.0/16` homes — byte-compatible with every existing
    /// report — and Internet-scale fleets continue into disjoint /20
    /// blocks carved from `129.0.0.0/8` upward (4,096 per /8, stopping
    /// before the `169.254.0.0/16` link-local neighborhood): ~164k stubs
    /// total. A /20 holds 4,094 hosts, enough for every built-in profile
    /// except UNC (35,000 hosts) — which still runs *count-level*, since
    /// period counts never materialize host addresses.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 164_096` (the routable pool is exhausted).
    pub fn fleet_prefix(index: usize) -> Ipv4Net {
        if index <= 255 {
            return Ipv4Net::new(Ipv4Addr::new(128, index as u8, 0, 0), 16);
        }
        let block = index - 256;
        let octet = 129 + block / 4096;
        assert!(
            octet <= 168,
            "fleet prefix index {index} exhausts the routable pool"
        );
        let within = block % 4096;
        Ipv4Net::new(
            Ipv4Addr::new(
                octet as u8,
                (within / 16) as u8,
                ((within % 16) * 16) as u8,
                0,
            ),
            20,
        )
    }

    /// `count` clean stubs all running the same workload template,
    /// re-homed into disjoint prefixes and MAC namespaces.
    pub fn uniform(
        name: impl Into<String>,
        template: &SiteProfile,
        count: usize,
        config: SynDogConfig,
        master_seed: u64,
    ) -> Self {
        // Fleet site-ids live in 0x100..0xFF00 of the u16 MAC namespace
        // (below the 0xff00+ DDoS-slave block); past it, trace-level host
        // MACs would collide across stubs. Count-level runs never mint
        // host MACs, but the cap keeps the invariant simple.
        assert!(count <= 0xFE00, "uniform fleet exceeds the MAC namespace");
        let mut scenario = Scenario::new(name, config, master_seed);
        for i in 0..count {
            // Site-id namespace 0x100+ keeps fleet host MACs clear of both
            // the four real sites (0–3) and DDoS slave MACs (0xff00+).
            let site = template
                .clone()
                .rehomed(Self::fleet_prefix(i), 0x100 + i as u16);
            scenario
                .stubs
                .push(StubSpec::clean(format!("{}-{i}", template.name()), site));
        }
        scenario
    }

    /// The paper's DDoS case: a [`DdosCampaign`] of aggregate rate
    /// `total_rate` split evenly across the stubs listed in `attacked`
    /// (indices into a `count`-stub uniform fleet), each slave carrying
    /// its own deterministic MAC. With enough attacked stubs each source
    /// stays below a single-point `f_min` while every hosting stub's own
    /// SYN-dog still sees it.
    ///
    /// # Panics
    ///
    /// Panics if `attacked` is empty or names an index `>= count`.
    #[allow(clippy::too_many_arguments)]
    pub fn distributed_flood(
        name: impl Into<String>,
        template: &SiteProfile,
        count: usize,
        attacked: &[usize],
        total_rate: f64,
        start: SimTime,
        target: SocketAddrV4,
        config: SynDogConfig,
        master_seed: u64,
    ) -> Self {
        assert!(!attacked.is_empty(), "a distributed flood needs sources");
        let mut scenario = Self::uniform(name, template, count, config, master_seed);
        let campaign = DdosCampaign::new(total_rate, attacked.len(), start, target);
        for (slave, &stub_index) in attacked.iter().enumerate() {
            assert!(
                stub_index < count,
                "attacked stub {stub_index} outside the {count}-stub fleet"
            );
            scenario.stubs[stub_index].attack = Some(campaign.slave(slave));
        }
        scenario
    }

    /// Returns the scenario with every agent running `detector` instead of
    /// the default paper strategy. The report shape is identical; only the
    /// per-period decision rule changes.
    #[must_use]
    pub fn with_detector(mut self, detector: DetectorKind) -> Self {
        self.detector = detector;
        self
    }

    /// Returns the scenario with fault injection enabled (each stub gets
    /// its own derived fault seed; the `seed` field of `spec` is ignored).
    #[must_use]
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Returns the scenario with source-end mitigation enabled on every
    /// stub's agent.
    #[must_use]
    pub fn with_mitigation(mut self, policy: MitigationPolicy) -> Self {
        self.mitigation = Some(policy);
        self
    }

    /// The workload seed for stub `index` (derived stream `2·index`).
    pub fn stub_seed(&self, index: usize) -> u64 {
        derive_seed(self.master_seed, 2 * index as u64)
    }

    /// The fault spec for stub `index`, re-seeded from derived stream
    /// `2·index + 1`; `None` when the scenario injects no faults.
    pub fn stub_faults(&self, index: usize) -> Option<FaultSpec> {
        self.faults.filter(|f| !f.is_off()).map(|f| FaultSpec {
            seed: derive_seed(self.master_seed, 2 * index as u64 + 1),
            ..f
        })
    }

    /// Ground-truth indices of the attacked stubs.
    pub fn attacked_indices(&self) -> Vec<usize> {
        self.stubs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.attack.is_some())
            .map(|(i, _)| i)
            .collect()
    }
}

/// The fleet runner: executes a [`Scenario`], one agent per stub.
#[derive(Debug, Clone)]
pub struct Fleet {
    scenario: Scenario,
    parallelism: Parallelism,
    telemetry: Option<Arc<Telemetry>>,
    label_budget: Option<LabelBudget>,
}

/// Pre-registered telemetry bundles: one per distinct label set, fanned
/// out to stubs by index. Building this takes the registry construction
/// lock once per label set — *before* the parallel runner starts —
/// and handing agents clones of the `Arc` handles takes none, so a
/// 10k-stub fleet neither serializes on nor pays registration per stub.
#[derive(Debug, Clone)]
struct PreparedTelemetry {
    /// Stub index → bundle index.
    assignment: Vec<usize>,
    bundles: Vec<(AgentTelemetry, Option<MitigationTelemetry>)>,
}

impl Fleet {
    /// A runner over the scenario, defaulting to all available cores.
    pub fn new(scenario: Scenario) -> Self {
        Fleet {
            scenario,
            parallelism: Parallelism::Auto,
            telemetry: None,
            label_budget: None,
        }
    }

    /// Caps (or pins) the worker count. The report is identical for any
    /// value; only wall-clock time changes.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Attaches a shared telemetry hub: every agent registers its series
    /// under a `stub="<cidr>"` label (see
    /// [`SynDogAgent::set_stub_telemetry`]), so per-stub metrics coexist
    /// on one hub.
    #[must_use]
    pub fn with_telemetry(mut self, hub: Arc<Telemetry>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Attaches a shared telemetry hub *with a label-cardinality
    /// budget*. While the fleet fits the budget every agent keeps its
    /// own `stub="<cidr>"` series exactly as [`Fleet::with_telemetry`];
    /// past it, agents share per-region rollup series labelled
    /// `region="r<k>"` (contiguous stub-index blocks — the same blocks
    /// the [`crate::correlate`] tier uses), and the correlated runner
    /// additionally publishes a bounded top-K spotlight of alarmed
    /// stubs. Per-stub labels at 10k stubs are a cardinality bomb; this
    /// is the pressure valve.
    #[must_use]
    pub fn with_telemetry_budget(mut self, hub: Arc<Telemetry>, budget: LabelBudget) -> Self {
        self.telemetry = Some(hub);
        self.label_budget = Some(budget);
        self
    }

    /// The label budget, if one was attached.
    pub fn label_budget(&self) -> Option<LabelBudget> {
        self.label_budget
    }

    /// The scenario this runner executes.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Registers every label set the run will report under — one bundle
    /// per distinct set, deduplicated — so agent construction inside the
    /// parallel runner never touches the registry lock. Returns `None`
    /// when no hub is attached.
    fn prepare_telemetry(&self) -> Option<PreparedTelemetry> {
        let hub = self.telemetry.as_ref()?;
        let stubs = self.scenario.stubs.len();
        let mode = self
            .label_budget
            .map_or(LabelMode::PerItem, |budget| budget.mode(stubs));
        let detector = self.scenario.detector.name();
        let mitigated = self.scenario.mitigation.is_some();
        let mut assignment = Vec::with_capacity(stubs);
        let mut by_value: HashMap<String, usize> = HashMap::new();
        let mut bundles = Vec::new();
        for index in 0..stubs {
            let (key, value) = match mode.group_of(index) {
                Some(group) => ("region", format!("r{group}")),
                None => ("stub", self.scenario.stubs[index].stub().to_string()),
            };
            let bundle = *by_value.entry(value.clone()).or_insert_with(|| {
                let labels = [(key, value.as_str()), ("detector", detector)];
                let agent = AgentTelemetry::with_labels(Arc::clone(hub), &labels);
                let mitigation = mitigated.then(|| MitigationTelemetry::with_labels(hub, &labels));
                bundles.push((agent, mitigation));
                bundles.len() - 1
            });
            assignment.push(bundle);
        }
        Some(PreparedTelemetry {
            assignment,
            bundles,
        })
    }

    /// Publishes fleet-level rollup gauges after a fold: fleet size, how
    /// many stubs the run implicated, and an item-granular spotlight for
    /// the top alarmed stubs — the only per-stub labels a budgeted run
    /// emits.
    pub(crate) fn publish_fleet_gauges(&self, implicated: u64, top: &[(Ipv4Net, f64)]) {
        let Some(hub) = &self.telemetry else { return };
        let registry = hub.registry();
        registry
            .gauge("syndog_fleet_stubs")
            .set(self.scenario.stubs.len() as f64);
        registry
            .gauge("syndog_fleet_implicated_stubs")
            .set(implicated as f64);
        for (prefix, rate) in top {
            let stub = prefix.to_string();
            registry
                .gauge_with("syndog_fleet_top_stub_rate", &[("stub", &stub)])
                .set(*rate);
        }
    }

    /// Trace-level run: full record streams with addresses and MACs
    /// through every agent, then post-alarm [`SourceLocator`] accounting
    /// from the first alarm to the end of the trace — so implicated stubs
    /// also name the suspect MAC.
    pub fn run(&self) -> FleetReport {
        let prepared = self.prepare_telemetry();
        let prepared = prepared.as_ref();
        let stubs = run_indexed(self.scenario.stubs.len(), self.parallelism, |i| {
            self.run_stub_trace(i, prepared)
        });
        self.report(stubs)
    }

    /// Count-level fast path: per-period SYN / SYN-ACK counts through the
    /// detector only. No addresses or MACs, so no suspect localization,
    /// and fault injection (a record-stream concept) is not applied. Bins
    /// at the paper's [`OBSERVATION_PERIOD`], like every count-level
    /// experiment.
    ///
    /// This path streams: stub rows are folded in index order and no
    /// per-stub detection series is ever materialized, so it carries
    /// thousand-stub scenarios in O(stubs) memory. Small fleets that
    /// need the `y_n` series use
    /// [`Fleet::run_counts_with_detections`].
    pub fn run_counts(&self) -> FleetReport {
        let stubs = self.fold_counts(
            Vec::with_capacity(self.scenario.stubs.len()),
            |rows: &mut Vec<StubReport>, row| rows.push(row.report),
        );
        self.report(stubs)
    }

    /// Count-level streaming run: executes every stub and folds its
    /// compact [`StubRow`] into `acc` strictly in stub-index order (so
    /// the result is byte-identical for any worker count). Peak memory
    /// is the accumulator plus in-flight per-stub state bounded by the
    /// worker count — this is the path that carries 1,000–10,000-stub
    /// scenarios. The correlation tier ([`crate::correlate`]) and the
    /// spill-to-CSV writer both build on it.
    pub fn fold_counts<A>(&self, acc: A, mut fold: impl FnMut(&mut A, StubRow)) -> A {
        let prepared = self.prepare_telemetry();
        let prepared = prepared.as_ref();
        run_indexed_fold(
            self.scenario.stubs.len(),
            self.parallelism,
            |i| self.run_stub_counts(i, prepared).0,
            acc,
            |acc, _, row| fold(acc, row),
        )
    }

    /// [`Fleet::run_counts`], also returning each stub's full per-period
    /// [`Detection`] series (the `y_n` plots the bench experiments
    /// draw). This is the **small-fleet** path kept for experiments: it
    /// materializes `stubs × periods` detections, which is exactly what
    /// the streaming paths exist to avoid.
    pub fn run_counts_with_detections(&self) -> (FleetReport, Vec<Vec<Detection>>) {
        let prepared = self.prepare_telemetry();
        let prepared = prepared.as_ref();
        let (stubs, detections) = run_indexed(self.scenario.stubs.len(), self.parallelism, |i| {
            let (row, agent) = self.run_stub_counts(i, prepared);
            (row.report, agent.detections().to_vec())
        })
        .into_iter()
        .unzip();
        (self.report(stubs), detections)
    }

    fn report(&self, stubs: Vec<StubReport>) -> FleetReport {
        FleetReport {
            scenario: self.scenario.name.clone(),
            master_seed: self.scenario.master_seed,
            stubs,
        }
    }

    fn new_agent(&self, index: usize, prepared: Option<&PreparedTelemetry>) -> SynDogAgent {
        let spec = &self.scenario.stubs[index];
        let detector = self.scenario.detector.build(self.scenario.config);
        let mut agent = SynDogAgent::with_detector(spec.stub(), detector);
        if let Some(policy) = self.scenario.mitigation {
            agent.set_mitigation(policy);
        }
        // Telemetry handles were registered up-front (one bundle per
        // label set); attaching a clone here takes no lock.
        if let Some(prepared) = prepared {
            let (telemetry, mitigation) = prepared.bundles[prepared.assignment[index]].clone();
            agent.set_prepared_telemetry(telemetry, mitigation);
        }
        agent
    }

    /// Builds stub `i`'s full trace: background workload, plus the
    /// planted flood, plus per-stub-seeded faults.
    fn stub_trace(&self, index: usize) -> Trace {
        let spec = &self.scenario.stubs[index];
        let mut rng = SimRng::seed_from_u64(self.scenario.stub_seed(index));
        let mut trace = spec.site.generate_trace(&mut rng);
        if let Some(flood) = &spec.attack {
            trace.merge(&flood.generate_trace(&mut rng));
        }
        match self.scenario.stub_faults(index) {
            Some(faults) => faults.apply_to_trace(&trace).0,
            None => trace,
        }
    }

    fn run_stub_trace(&self, index: usize, prepared: Option<&PreparedTelemetry>) -> StubReport {
        let spec = &self.scenario.stubs[index];
        let trace = self.stub_trace(index);
        let mut agent = self.new_agent(index, prepared);
        let period = agent.router().period();
        // Tally what reaches the victim: every outbound SYN the agent
        // forwards (all of them when no engine is armed).
        let mut forwarded_syns = Vec::new();
        // The paper's sweep, for an agent with no engine of its own to
        // localize: per-MAC accounting from the first alarm on.
        let mut locator = agent
            .mitigation()
            .is_none()
            .then(|| SourceLocator::new(spec.stub()));
        let records = trace.records().iter().copied();
        agent.run_trace_with(
            records,
            Some(trace.duration()),
            |agent, record, decision| {
                if let Some(locator) = &mut locator {
                    locator.observe_after_alarm(agent, record);
                }
                if record.direction == Direction::Outbound
                    && record.kind == SegmentKind::Syn
                    && decision.forwarded()
                {
                    // The record is in the open period unless it is late.
                    let open = agent.router().current_period();
                    let p = if record.time.as_micros() >= open * period.as_micros() {
                        open
                    } else {
                        record.time.period_index(period)
                    } as usize;
                    if forwarded_syns.len() <= p {
                        forwarded_syns.resize(p + 1, 0);
                    }
                    forwarded_syns[p] += 1;
                }
            },
        );
        forwarded_syns.resize(agent.detections().len(), 0);
        // Post-alarm localization: a mitigated agent's own armed locator
        // holds the tallies.
        let suspect = match (agent.mitigation(), locator) {
            (Some(engine), _) => engine
                .suspect()
                .cloned()
                .or_else(|| engine.locator().suspects().into_iter().next()),
            (None, locator) => locator.and_then(|l| l.suspects().into_iter().next()),
        };
        let rates = victim_rates(
            &forwarded_syns,
            agent.first_alarm().map(|a| a.period),
            period.as_secs_f64(),
        );
        StubReport::from_run(spec, &agent, suspect, rates)
    }

    /// One stub's count-level job. Generates the period counts, closes
    /// each period through [`SynDogAgent::close_count_period`], follows
    /// alarm-*episode* rising edges with an [`EpisodeTracker`], and
    /// returns a compact [`StubRow`] plus the agent (whose detection
    /// series the small-fleet path reads).
    fn run_stub_counts(
        &self,
        index: usize,
        prepared: Option<&PreparedTelemetry>,
    ) -> (StubRow, SynDogAgent) {
        let spec = &self.scenario.stubs[index];
        let mut rng = SimRng::seed_from_u64(self.scenario.stub_seed(index));
        let mut counts = spec.site.generate_period_counts(&mut rng);
        if let Some(flood) = &spec.attack {
            let flood_counts = flood.period_counts(counts.len(), OBSERVATION_PERIOD, &mut rng);
            for (c, f) in counts.iter_mut().zip(&flood_counts) {
                c.merge(*f);
            }
        }
        let mut agent = self.new_agent(index, prepared);
        let period_secs = OBSERVATION_PERIOD.as_secs_f64();
        let mut forwarded_syns = Vec::with_capacity(counts.len());
        let mut episodes = EpisodeTracker::default();
        let mut onsets = Vec::new();
        for sample in counts {
            // Count-level runs carry only the handshake pair; the
            // FIN/RST terms are zero (the fin-pair strategy needs the
            // trace-level record path for those).
            let (detection, shed) = agent.close_count_period(PeriodSignals {
                syn: sample.syn,
                synack: sample.synack,
                fin: 0,
                rst: 0,
            });
            forwarded_syns.push(sample.syn - shed);
            if let Some(EpisodeEdge::Opened(episode)) = episodes.observe(&detection) {
                onsets.push(AlarmOnset {
                    stub: index,
                    onset_period: episode.onset_period,
                    alarm_period: episode.alarm_period,
                    est_rate: (detection.delta / period_secs).max(0.0),
                });
            }
        }
        let rates = victim_rates(
            &forwarded_syns,
            agent.first_alarm().map(|a| a.period),
            period_secs,
        );
        let row = StubRow {
            index,
            report: StubReport::from_run(spec, &agent, None, rates),
            onsets,
        };
        (row, agent)
    }
}

/// Victim-observed SYN rates around the first alarm: `(before, after)` in
/// SYN/s, where *before* covers periods up to and including the alarming
/// period (throttles only engage at its close) and *after* covers the
/// periods past it. With no alarm — or an empty window — both sides
/// report the whole-run forwarded rate, so clean stubs read
/// `before == after`.
fn victim_rates(forwarded_syns: &[u64], first_alarm: Option<u64>, period_secs: f64) -> (f64, f64) {
    let rate = |window: &[u64]| {
        if window.is_empty() || period_secs <= 0.0 {
            None
        } else {
            Some(window.iter().sum::<u64>() as f64 / (window.len() as f64 * period_secs))
        }
    };
    let whole = rate(forwarded_syns).unwrap_or(0.0);
    match first_alarm {
        Some(p) if (p as usize) < forwarded_syns.len().saturating_sub(1) => {
            let split = p as usize + 1;
            let before = rate(&forwarded_syns[..split]).unwrap_or(whole);
            let after = rate(&forwarded_syns[split..]).unwrap_or(before);
            (before, after)
        }
        _ => (whole, whole),
    }
}

/// One stub's compact count-level result: everything the streaming fold
/// paths carry per stub. Deliberately O(1) in the period count — a report
/// row plus the alarm-episode onsets (a handful per run), never the
/// per-period detection series.
#[derive(Debug, Clone, PartialEq)]
pub struct StubRow {
    /// The stub's index in the scenario.
    pub index: usize,
    /// The stub's report row.
    pub report: StubReport,
    /// Rising-edge alarm onsets (one per episode), in period order — the
    /// edges the [`crate::correlate`] collectors subscribe to.
    pub onsets: Vec<AlarmOnset>,
}

/// One stub's row in the fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct StubReport {
    /// Stub display name.
    pub name: String,
    /// The stub's CIDR prefix.
    pub stub: Ipv4Net,
    /// Observation periods the agent closed.
    pub periods: u64,
    /// Ground truth: does the scenario plant a flooding source here?
    pub attacked: bool,
    /// The planted flood's rate in SYN/s (`0` for clean stubs).
    pub attack_rate: f64,
    /// The period the planted flood starts in.
    pub attack_start_period: Option<u64>,
    /// The agent's verdict: did it raise any alarm? In the first-mile
    /// deployment an alarm *is* localization to this stub.
    pub implicated: bool,
    /// Period index of the first alarm.
    pub first_alarm_period: Option<u64>,
    /// Simulated seconds of the first alarm (end of the alarming period).
    pub first_alarm_secs: Option<f64>,
    /// `first alarm at/after attack start − attack start`, in periods —
    /// the paper's detection-time measure. `None` for clean stubs or
    /// misses.
    pub detection_delay_periods: Option<u64>,
    /// Alarming periods before the attack started (all alarming periods,
    /// for clean stubs).
    pub false_alarm_periods: u64,
    /// Dominant spoofed-SYN MAC from post-alarm localization (trace-level
    /// runs only).
    pub suspect_mac: Option<MacAddr>,
    /// That MAC's share of all spoofed SYNs seen while armed.
    pub suspect_share: f64,
    /// Whether the suspect MAC is the planted attacker's (`None` when
    /// there is no suspect or no planted attack).
    pub suspect_is_attacker: Option<bool>,
    /// Whether this run attached a mitigation engine to the agent.
    pub mitigated: bool,
    /// Period the throttles (last) engaged at, if they ever did.
    pub engaged_period: Option<u64>,
    /// Period the hysteresis (last) released the throttles at.
    pub release_period: Option<u64>,
    /// SYNs the throttles dropped (keyed buckets or count-level shed).
    pub throttled_syns: u64,
    /// Throttled SYNs that were *not* spoofed — collateral damage to
    /// legitimate traffic (trace-level runs only).
    pub collateral_syns: u64,
    /// Spoofed-source SYNs offered while engaged (trace-level runs only).
    pub attack_syns_offered: u64,
    /// Spoofed-source SYNs the buckets still admitted.
    pub attack_syns_forwarded: u64,
    /// Victim-observed forwarded SYN rate (SYN/s) up to and including
    /// the first alarming period; the whole-run rate when nothing alarms.
    pub victim_syn_rate_before: f64,
    /// Victim-observed forwarded SYN rate after the first alarming
    /// period — with mitigation on, this is what the throttles let
    /// through.
    pub victim_syn_rate_after: f64,
}

impl StubReport {
    fn from_run(
        spec: &StubSpec,
        agent: &SynDogAgent,
        suspect: Option<Suspect>,
        victim_rates: (f64, f64),
    ) -> Self {
        let attack_start_period = spec
            .attack
            .as_ref()
            .map(|f| f.start.period_index(agent.router().period()));
        let first_alarm = agent.first_alarm();
        let detection_delay_periods = attack_start_period.and_then(|start| {
            agent
                .alarms()
                .iter()
                .find(|a| a.period >= start)
                .map(|a| a.period - start)
        });
        let false_alarm_periods = agent
            .detections()
            .iter()
            .filter(|d| d.alarm && attack_start_period.is_none_or(|start| d.period < start))
            .count() as u64;
        StubReport {
            name: spec.name.clone(),
            stub: spec.stub(),
            periods: agent.detections().len() as u64,
            attacked: spec.attack.is_some(),
            attack_rate: spec.attack.as_ref().map_or(0.0, |f| f.rate),
            attack_start_period,
            implicated: first_alarm.is_some(),
            first_alarm_period: first_alarm.map(|a| a.period),
            first_alarm_secs: first_alarm.map(|a| a.time.as_secs_f64()),
            detection_delay_periods,
            false_alarm_periods,
            suspect_is_attacker: suspect
                .as_ref()
                .and_then(|s| spec.attack.as_ref().map(|f| s.mac == f.attacker_mac)),
            suspect_mac: suspect.as_ref().map(|s| s.mac),
            suspect_share: suspect.as_ref().map_or(0.0, |s| s.share),
            mitigated: agent.mitigation().is_some(),
            engaged_period: agent.mitigation().and_then(|e| e.engaged_at()),
            release_period: agent.mitigation().and_then(|e| e.released_at()),
            throttled_syns: agent.mitigation().map_or(0, |e| e.stats().throttled_syns),
            collateral_syns: agent.mitigation().map_or(0, |e| e.stats().collateral_syns),
            attack_syns_offered: agent
                .mitigation()
                .map_or(0, |e| e.stats().attack_syns_offered),
            attack_syns_forwarded: agent
                .mitigation()
                .map_or(0, |e| e.stats().attack_syns_forwarded),
            victim_syn_rate_before: victim_rates.0,
            victim_syn_rate_after: victim_rates.1,
        }
    }

    /// Writes this row in the fleet CSV format (byte-identical to the
    /// corresponding [`FleetReport::to_csv`] line). Streaming folds call
    /// this per stub so a 10k-row table goes straight to disk.
    pub fn write_csv_row(&self, out: &mut dyn Write) -> io::Result<()> {
        let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{:.6},{:.6}",
            self.name,
            self.stub,
            self.periods,
            self.attacked,
            self.attack_rate,
            opt(self.attack_start_period),
            self.implicated,
            opt(self.first_alarm_period),
            self.first_alarm_secs
                .map_or(String::new(), |t| format!("{t:.3}")),
            opt(self.detection_delay_periods),
            self.false_alarm_periods,
            self.suspect_mac.map_or(String::new(), |m| m.to_string()),
            self.suspect_share,
            self.suspect_is_attacker
                .map_or(String::new(), |b| b.to_string()),
            self.mitigated,
            opt(self.engaged_period),
            opt(self.release_period),
            self.throttled_syns,
            self.collateral_syns,
            self.attack_syns_offered,
            self.attack_syns_forwarded,
            self.victim_syn_rate_before,
            self.victim_syn_rate_after,
        )
    }
}

/// Header line of the fleet CSV (shared by the in-memory and streaming
/// writers).
const CSV_HEADER: &str = "stub,prefix,periods,attacked,attack_rate,attack_start_period,implicated,\
     first_alarm_period,first_alarm_secs,detection_delay_periods,false_alarm_periods,\
     suspect_mac,suspect_share,suspect_is_attacker,mitigated,engaged_period,\
     release_period,throttled_syns,collateral_syns,attack_syns_offered,\
     attack_syns_forwarded,victim_syn_rate_before,victim_syn_rate_after\n";

/// The fleet's cross-check against `syndog-traceback` topology
/// localization: the leaf routers the report implicates vs the leaf
/// routers at the sources of the scenario's attack tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyCheck {
    /// Leaf routers of the ground-truth attacked stubs, sorted.
    pub expected_sources: Vec<RouterId>,
    /// Leaf routers of the implicated stubs, sorted.
    pub implicated_sources: Vec<RouterId>,
}

impl TopologyCheck {
    /// Whether first-mile implication names exactly the attack tree's
    /// source leaves — i.e. the fleet localized without any traceback.
    pub fn matches(&self) -> bool {
        self.expected_sources == self.implicated_sources
    }
}

/// The assembled fleet result.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The scenario's name.
    pub scenario: String,
    /// The master seed the run derived everything from.
    pub master_seed: u64,
    /// One row per stub, in scenario order.
    pub stubs: Vec<StubReport>,
}

impl FleetReport {
    /// The stubs the fleet implicates (any alarm raised).
    pub fn implicated(&self) -> Vec<&StubReport> {
        self.stubs.iter().filter(|s| s.implicated).collect()
    }

    /// Builds the scenario's attack tree (one path per stub, deterministic
    /// from the master seed; `RouterId`s at path position 0 are the leaf
    /// routers) and compares its attacked-source leaves with the leaves
    /// the fleet implicates.
    pub fn topology_cross_check(&self) -> TopologyCheck {
        let mut rng = SimRng::seed_from_u64(derive_seed(self.master_seed, TOPOLOGY_STREAM));
        let paths = AttackPath::tree(self.stubs.len(), 5, 2, &mut rng);
        let leaves = |pred: &dyn Fn(&StubReport) -> bool| {
            let mut ids: Vec<RouterId> = self
                .stubs
                .iter()
                .zip(&paths)
                .filter(|(s, _)| pred(s))
                .map(|(_, p)| p.routers()[0])
                .collect();
            ids.sort_unstable();
            ids
        };
        TopologyCheck {
            expected_sources: leaves(&|s| s.attacked),
            implicated_sources: leaves(&|s| s.implicated),
        }
    }

    /// A fixed-format human-readable table. Byte-stable for a given
    /// report, so worker-count determinism can be asserted on the text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet {} (seed {}, {} stubs)\n{:<14} {:<18} {:>8} {:>7} {:>7} {:>6}  suspect\n",
            self.scenario,
            self.master_seed,
            self.stubs.len(),
            "stub",
            "prefix",
            "attacked",
            "alarm@",
            "delay",
            "false",
        );
        for s in &self.stubs {
            let alarm = s
                .first_alarm_period
                .map_or("-".to_string(), |p| format!("p{p}"));
            let delay = s
                .detection_delay_periods
                .map_or("-".to_string(), |d| d.to_string());
            let suspect = match (&s.suspect_mac, s.suspect_is_attacker) {
                (Some(mac), Some(true)) => format!("{mac} (attacker, {:.3})", s.suspect_share),
                (Some(mac), _) => format!("{mac} ({:.3})", s.suspect_share),
                (None, _) => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<14} {:<18} {:>8} {:>7} {:>7} {:>6}  {}\n",
                s.name,
                s.stub.to_string(),
                if s.attacked { "yes" } else { "no" },
                alarm,
                delay,
                s.false_alarm_periods,
                suspect,
            ));
        }
        for s in self.implicated() {
            out.push_str(&format!("IMPLICATED {}\n", s.stub));
        }
        for s in self.stubs.iter().filter(|s| s.engaged_period.is_some()) {
            out.push_str(&format!(
                "THROTTLED {} engaged=p{} released={} throttled={} collateral={} \
                 victim_syn_rate {:.3}->{:.3} syn/s\n",
                s.stub,
                s.engaged_period.expect("filtered on engaged"),
                s.release_period
                    .map_or("active".to_string(), |p| format!("p{p}")),
                s.throttled_syns,
                s.collateral_syns,
                s.victim_syn_rate_before,
                s.victim_syn_rate_after,
            ));
        }
        let check = self.topology_cross_check();
        out.push_str(&format!(
            "topology cross-check: {} ({} expected source(s), {} implicated)\n",
            if check.matches() { "MATCH" } else { "MISMATCH" },
            check.expected_sources.len(),
            check.implicated_sources.len(),
        ));
        out
    }

    /// Writes the CSV header row ([`StubReport::write_csv_row`] rows
    /// follow it). Split out so the streaming fold paths can spill rows
    /// to a writer as stubs complete, never holding the table in memory.
    pub fn write_csv_header(out: &mut dyn Write) -> io::Result<()> {
        out.write_all(CSV_HEADER.as_bytes())
    }

    /// The report as CSV (one row per stub), byte-stable like
    /// [`FleetReport::render`]. Convenience wrapper over
    /// [`FleetReport::write_csv`] for small fleets; scale paths stream
    /// rows instead.
    pub fn to_csv(&self) -> String {
        let mut out = Vec::new();
        self.write_csv(&mut out)
            .expect("Vec<u8> writes are infallible");
        String::from_utf8(out).expect("CSV rows are ASCII")
    }

    /// Streams the report as CSV into `out` — header then one row per
    /// stub, byte-identical to [`FleetReport::to_csv`].
    pub fn write_csv(&self, out: &mut dyn Write) -> io::Result<()> {
        FleetReport::write_csv_header(out)?;
        for s in &self.stubs {
            s.write_csv_row(out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_streams_are_distinct_and_stable() {
        let a = derive_seed(42, 0);
        assert_eq!(a, derive_seed(42, 0), "pure function");
        let streams: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        let mut unique = streams.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), streams.len(), "no stream collisions");
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0), "master matters");
    }

    #[test]
    fn fleet_prefixes_are_disjoint_and_routable() {
        // Sample across both regimes: the historical /16s (≤255) and the
        // /20 blocks the Internet-scale fleet continues into, including
        // the boundaries where the carving rolls over.
        let samples = [
            0usize, 1, 7, 255, 256, 257, 300, 4351, 4352, 8447, 8448, 20_000, 164_095,
        ];
        for &i in &samples {
            let net = Scenario::fleet_prefix(i);
            assert!(net.contains(net.host(1)), "stub {i} prefix {net}");
            for &j in &samples {
                if i != j {
                    assert!(
                        !net.contains(Scenario::fleet_prefix(j).host(1)),
                        "stub {i} ({net}) overlaps stub {j} ({})",
                        Scenario::fleet_prefix(j)
                    );
                }
            }
        }
        // First 256 stay byte-compatible with every existing report.
        assert_eq!(Scenario::fleet_prefix(9).to_string(), "128.9.0.0/16");
        // The scale regime is /20s from 129/8 upward.
        assert_eq!(Scenario::fleet_prefix(256).to_string(), "129.0.0.0/20");
        assert_eq!(Scenario::fleet_prefix(4352).to_string(), "130.0.0.0/20");
    }

    #[test]
    #[should_panic(expected = "exhausts the routable pool")]
    fn fleet_prefix_panics_past_the_routable_pool() {
        let _ = Scenario::fleet_prefix(164_096);
    }

    #[test]
    fn stub_jobs_do_not_register_series() {
        // Satellite 6's regression: registration happens entirely in
        // prepare_telemetry; executing stub jobs must not grow the
        // registry (i.e. never touch its construction lock).
        let scenario = Scenario::uniform(
            "prep",
            &SiteProfile::lbl(),
            3,
            SynDogConfig::paper_default(),
            7,
        );
        let hub = Arc::new(Telemetry::new());
        let fleet = Fleet::new(scenario).with_telemetry(Arc::clone(&hub));
        let prepared = fleet.prepare_telemetry();
        let series_count = || {
            let snapshot = hub.registry().snapshot();
            snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len()
        };
        let registered = series_count();
        assert!(registered > 0, "prepare registers the bundles");
        for index in 0..3 {
            let _ = fleet.run_stub_counts(index, prepared.as_ref());
        }
        assert_eq!(
            series_count(),
            registered,
            "stub jobs must not register series"
        );
    }

    #[test]
    fn label_budget_caps_series_cardinality() {
        let template = SiteProfile::lbl().with_duration(syndog_sim::SimDuration::from_secs(600));
        let scenario = Scenario::uniform("budget", &template, 24, SynDogConfig::paper_default(), 7);
        let hub = Arc::new(Telemetry::new());
        let report = Fleet::new(scenario)
            .with_telemetry_budget(Arc::clone(&hub), LabelBudget::new(4))
            .run_counts();
        assert_eq!(report.stubs.len(), 24);
        let snapshot = hub.snapshot();
        let alarm_sets: Vec<_> = snapshot
            .counters
            .iter()
            .filter(|m| m.name == "syndog_alarms_total")
            .collect();
        assert_eq!(alarm_sets.len(), 4, "24 stubs roll up into 4 region sets");
        for m in &alarm_sets {
            assert!(
                m.labels
                    .iter()
                    .any(|(k, v)| k == "region" && v.starts_with('r')),
                "rollup series carry region labels: {:?}",
                m.labels
            );
            assert!(
                m.labels.iter().all(|(k, _)| k != "stub"),
                "budgeted runs register no per-stub labels: {:?}",
                m.labels
            );
        }
    }

    #[test]
    fn uniform_scenario_rehomes_each_stub() {
        let scenario = Scenario::uniform(
            "u",
            &SiteProfile::lbl(),
            4,
            SynDogConfig::paper_default(),
            7,
        );
        assert_eq!(scenario.stubs.len(), 4);
        for (i, stub) in scenario.stubs.iter().enumerate() {
            assert_eq!(stub.stub(), Scenario::fleet_prefix(i));
            assert!(stub.attack.is_none());
        }
        assert!(scenario.attacked_indices().is_empty());
    }

    #[test]
    fn distributed_flood_splits_rate_and_places_slaves() {
        let scenario = Scenario::distributed_flood(
            "ddos",
            &SiteProfile::lbl(),
            4,
            &[1, 3],
            20.0,
            SimTime::from_secs(100),
            "192.0.2.80:80".parse().unwrap(),
            SynDogConfig::paper_default(),
            7,
        );
        assert_eq!(scenario.attacked_indices(), vec![1, 3]);
        let rates: Vec<f64> = scenario
            .stubs
            .iter()
            .filter_map(|s| s.attack.as_ref().map(|f| f.rate))
            .collect();
        assert_eq!(rates, vec![10.0, 10.0]);
        let macs: Vec<MacAddr> = scenario
            .stubs
            .iter()
            .filter_map(|s| s.attack.as_ref().map(|f| f.attacker_mac))
            .collect();
        assert_ne!(macs[0], macs[1], "slaves carry distinct MACs");
    }

    #[test]
    fn stub_faults_derive_per_stub_seeds() {
        let spec = FaultSpec {
            drop: 0.1,
            ..FaultSpec::off()
        };
        let scenario = Scenario::uniform(
            "f",
            &SiteProfile::lbl(),
            2,
            SynDogConfig::paper_default(),
            7,
        )
        .with_faults(spec);
        let f0 = scenario.stub_faults(0).unwrap();
        let f1 = scenario.stub_faults(1).unwrap();
        assert_eq!(f0.drop, 0.1);
        assert_ne!(f0.seed, f1.seed);
        let clean = Scenario::uniform(
            "c",
            &SiteProfile::lbl(),
            2,
            SynDogConfig::paper_default(),
            7,
        );
        assert!(clean.stub_faults(0).is_none());
        let off = clean.with_faults(FaultSpec::off());
        assert!(off.stub_faults(0).is_none(), "off spec injects nothing");
    }

    #[test]
    fn count_level_report_matches_single_agent_semantics() {
        // One-stub scenario vs a hand-driven detector: same alarms.
        use syndog::SynDogDetector;
        let site = SiteProfile::lbl();
        let config = SynDogConfig::paper_default();
        let flood = SynFlood::constant(
            8.0,
            SimTime::from_secs(600),
            syndog_sim::SimDuration::from_secs(600),
            "192.0.2.80:80".parse().unwrap(),
        );
        let scenario = Scenario::single("one", site.clone(), config, Some(flood.clone()), 99);
        let seed = scenario.stub_seed(0);
        let (report, detections) = Fleet::new(scenario)
            .with_parallelism(Parallelism::Fixed(1))
            .run_counts_with_detections();

        // Re-derive by hand with the same stream.
        let mut rng = SimRng::seed_from_u64(seed);
        let mut counts = site.generate_period_counts(&mut rng);
        let flood_counts = flood.period_counts(counts.len(), OBSERVATION_PERIOD, &mut rng);
        for (c, f) in counts.iter_mut().zip(&flood_counts) {
            c.merge(*f);
        }
        let mut dog = SynDogDetector::new(config);
        let by_hand: Vec<Detection> = counts
            .iter()
            .map(|c| {
                dog.observe(syndog::PeriodCounts {
                    syn: c.syn,
                    synack: c.synack,
                })
            })
            .collect();
        assert_eq!(detections[0], by_hand);
        let stub = &report.stubs[0];
        assert_eq!(stub.periods, by_hand.len() as u64);
        assert_eq!(stub.attack_start_period, Some(30));
        assert_eq!(
            stub.implicated,
            by_hand.iter().any(|d| d.alarm),
            "implication mirrors the detector"
        );
    }

    #[test]
    fn every_detector_kind_reports_identically_for_any_worker_count() {
        // The acceptance bar for strategy plumbing: for each strategy the
        // fleet report — and hence its rendered text — is a pure function
        // of the scenario, independent of parallelism.
        let mk = |kind: DetectorKind| {
            Scenario::uniform(
                "det",
                &SiteProfile::lbl(),
                3,
                SynDogConfig::paper_default(),
                11,
            )
            .with_detector(kind)
        };
        for kind in DetectorKind::ALL {
            let serial = Fleet::new(mk(kind))
                .with_parallelism(Parallelism::Fixed(1))
                .run_counts();
            let parallel = Fleet::new(mk(kind))
                .with_parallelism(Parallelism::Fixed(3))
                .run_counts();
            assert_eq!(serial, parallel, "{kind} must not depend on workers");
            assert_eq!(serial.render(), parallel.render());
            assert_eq!(serial.to_csv(), parallel.to_csv());
        }
    }

    #[test]
    fn report_render_and_csv_are_stable() {
        let scenario = Scenario::uniform(
            "fmt",
            &SiteProfile::lbl(),
            2,
            SynDogConfig::paper_default(),
            5,
        );
        let fleet = Fleet::new(scenario);
        let a = fleet.run_counts();
        let b = fleet.run_counts();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_csv(), b.to_csv());
        assert!(a.to_csv().starts_with("stub,prefix,"));
        assert!(a.render().contains("topology cross-check: MATCH"));
    }
}
