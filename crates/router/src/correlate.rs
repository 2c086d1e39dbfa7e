//! Hierarchical alarm correlation: from per-stub alarm edges to one
//! campaign.
//!
//! The fleet tier answers *"which stubs are flooding?"* — but the
//! paper's DDoS threat model (§4.2) is one **master** driving slaves in
//! many stub networks at once, each slave's rate `V/A` tuned to hide
//! below any single vantage's `f_min`. A human staring at 2,000 stub
//! rows cannot see that those 100 scattered alarms are *one attack*.
//! This module adds the missing tier:
//!
//! - [`RegionalCollector`] — one per contiguous stub-index region (the
//!   same blocks [`syndog_telemetry::LabelMode::group_of`] rolls metrics
//!   into). It subscribes to leaf [`AlarmOnset`] edges and clusters them
//!   in time: onsets within [`CollectorConfig::window_periods`] of each
//!   other chain into one regional cluster.
//! - [`FleetCorrelator`] — merges regional clusters whose onset windows
//!   overlap into [`Campaign`]s, and assembles the [`CampaignReport`]:
//!   which stubs host slaves of the same master, over which onset
//!   window, at what estimated aggregate rate — cross-checked against
//!   the `syndog-traceback` attack-tree topology exactly like
//!   [`FleetReport::topology_cross_check`](crate::fleet::FleetReport::topology_cross_check).
//!
//! Correlation is deliberately *pure arithmetic over onsets*: collectors
//! sort before clustering, so the report is invariant under the order
//! onsets arrive in (worker scheduling, stub permutation) — the same
//! determinism bar the fleet runner holds itself to.
//!
//! [`Fleet::run_counts_correlated`] wires the tier to the streaming
//! count-level fold: stub rows spill to CSV as they complete, onsets
//! feed the collectors, and nothing proportional to `stubs × periods`
//! is ever held in memory.

use std::io::{self, Write};

use syndog_net::Ipv4Net;
use syndog_sim::SimRng;
use syndog_telemetry::TopK;
use syndog_traceback::AttackPath;

use crate::fleet::{derive_seed, Fleet, StubRow, TopologyCheck, TOPOLOGY_STREAM};

/// One rising alarm edge at a leaf SYN-dog: the start of an alarm
/// episode, as estimated by the CUSUM's geometry (the last zero-statistic
/// period before the climb — see [`crate::episodes`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlarmOnset {
    /// Index of the stub whose agent raised the edge.
    pub stub: usize,
    /// Estimated first attack period (last zero-`y` period before the
    /// climb that alarmed).
    pub onset_period: u64,
    /// Period the alarm actually fired in.
    pub alarm_period: u64,
    /// Estimated excess SYN rate in SYN/s at the alarming period
    /// (`Δ_n / t0`, floored at zero) — a per-slave rate estimate the
    /// campaign sums into the master's aggregate.
    pub est_rate: f64,
}

/// Tuning for the correlation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Number of regional collectors; stubs map to regions by the same
    /// contiguous-block arithmetic the telemetry label budget uses, so
    /// rollup metrics and campaign regions agree.
    pub regions: usize,
    /// Two onsets chain into the same cluster when their estimated onset
    /// periods are within this many periods of each other. Onset
    /// estimates for one synchronized flood land within a couple of
    /// periods; the default (6 periods = 2 simulated minutes at the
    /// paper's `t0`) absorbs that jitter without bridging unrelated
    /// episodes.
    pub window_periods: u64,
    /// How many implicated stubs the correlated runner spotlights in the
    /// top-K telemetry gauges.
    pub top_k: usize,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            regions: 4,
            window_periods: 6,
            top_k: 8,
        }
    }
}

impl CollectorConfig {
    /// A config with `regions` collectors and the default window/top-K.
    pub fn with_regions(regions: usize) -> Self {
        CollectorConfig {
            regions: regions.max(1),
            ..CollectorConfig::default()
        }
    }

    /// The region stub `stub` of `stub_count` reports into — contiguous
    /// index blocks, identical to
    /// [`syndog_telemetry::LabelMode::group_of`] so the `region="r<k>"`
    /// rollup series and the campaign's region tallies name the same
    /// partition.
    pub fn region_of(&self, stub: usize, stub_count: usize) -> usize {
        let regions = self.regions.max(1).min(stub_count.max(1));
        (stub * regions) / stub_count.max(1)
    }
}

/// A time cluster of alarm onsets inside one region.
#[derive(Debug, Clone, PartialEq)]
struct RegionalCluster {
    region: usize,
    first_onset: u64,
    last_onset: u64,
    onsets: Vec<AlarmOnset>,
}

/// Collects the alarm edges of one region's stubs and clusters them in
/// time. Accumulation is order-insensitive: clustering sorts by
/// `(onset_period, stub)` before the greedy chain, so any arrival order
/// (parallel fold, shuffled replay) yields byte-identical clusters.
#[derive(Debug, Clone)]
pub struct RegionalCollector {
    region: usize,
    window_periods: u64,
    onsets: Vec<AlarmOnset>,
}

impl RegionalCollector {
    /// An empty collector for `region`.
    pub fn new(region: usize, window_periods: u64) -> Self {
        RegionalCollector {
            region,
            window_periods,
            onsets: Vec::new(),
        }
    }

    /// Subscribes one alarm edge.
    pub fn observe(&mut self, onset: AlarmOnset) {
        self.onsets.push(onset);
    }

    /// Clusters the collected onsets: sorted by `(onset_period, stub)`,
    /// then greedily chained — an onset joins the open cluster while it
    /// is within `window_periods` of the cluster's latest onset.
    fn clusters(&self) -> Vec<RegionalCluster> {
        let mut sorted = self.onsets.clone();
        sorted.sort_by_key(|o| (o.onset_period, o.stub));
        let mut clusters: Vec<RegionalCluster> = Vec::new();
        for onset in sorted {
            match clusters.last_mut() {
                Some(open) if onset.onset_period <= open.last_onset + self.window_periods => {
                    open.last_onset = open.last_onset.max(onset.onset_period);
                    open.onsets.push(onset);
                }
                _ => clusters.push(RegionalCluster {
                    region: self.region,
                    first_onset: onset.onset_period,
                    last_onset: onset.onset_period,
                    onsets: vec![onset],
                }),
            }
        }
        clusters
    }
}

/// One stub's membership in a reconstructed campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignMember {
    /// Stub index in the scenario.
    pub stub: usize,
    /// The stub's CIDR prefix.
    pub prefix: Ipv4Net,
    /// The member's earliest onset period inside the campaign window.
    pub onset_period: u64,
    /// The member's largest estimated excess rate (SYN/s).
    pub est_rate: f64,
    /// The region whose collector surfaced this member.
    pub region: usize,
}

/// A reconstructed distributed-flood campaign: one master's slave stub
/// set, recovered purely from correlated leaf alarms.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Earliest member onset period.
    pub first_onset: u64,
    /// Latest member onset period.
    pub last_onset: u64,
    /// The slave stubs, sorted by index, one entry per stub.
    pub members: Vec<CampaignMember>,
    /// How many distinct regions contributed members.
    pub regions: usize,
    /// Sum of the members' estimated excess rates — the reconstructed
    /// aggregate `V` the master spread over its slaves.
    pub est_total_rate: f64,
}

/// The correlation tier's verdict over one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// Master seed (drives the topology cross-check tree).
    pub master_seed: u64,
    /// Fleet size the correlation ran over.
    pub stub_count: usize,
    /// Regional collectors in play.
    pub regions: usize,
    /// Clustering window used.
    pub window_periods: u64,
    /// Reconstructed campaigns, ordered by first onset.
    pub campaigns: Vec<Campaign>,
    /// Ground-truth attacked stub indices, sorted.
    pub attacked: Vec<usize>,
}

impl CampaignReport {
    /// Every stub implicated by any campaign, sorted, deduplicated.
    pub fn implicated(&self) -> Vec<usize> {
        let mut stubs: Vec<usize> = self
            .campaigns
            .iter()
            .flat_map(|c| c.members.iter().map(|m| m.stub))
            .collect();
        stubs.sort_unstable();
        stubs.dedup();
        stubs
    }

    /// Exact reconstruction: the campaign members are precisely the
    /// ground-truth attacked stubs — every slave implicated, zero false
    /// implications.
    pub fn exact_reconstruction(&self) -> bool {
        !self.campaigns.is_empty() && self.implicated() == self.attacked
    }

    /// Cross-checks the campaign membership against the scenario's
    /// `syndog-traceback` attack tree (the same deterministic tree
    /// [`crate::fleet::FleetReport::topology_cross_check`] builds):
    /// expected sources are the attacked stubs' leaf routers, implicated
    /// sources the campaign members'.
    pub fn topology_cross_check(&self) -> TopologyCheck {
        let mut rng = SimRng::seed_from_u64(derive_seed(self.master_seed, TOPOLOGY_STREAM));
        let paths = AttackPath::tree(self.stub_count, 5, 2, &mut rng);
        let leaves = |stubs: &[usize]| {
            let mut ids: Vec<_> = stubs.iter().map(|&s| paths[s].routers()[0]).collect();
            ids.sort_unstable();
            ids
        };
        TopologyCheck {
            expected_sources: leaves(&self.attacked),
            implicated_sources: leaves(&self.implicated()),
        }
    }

    /// A fixed-format, byte-stable summary: one `CAMPAIGN` line per
    /// reconstructed campaign (slave listings capped at eight prefixes),
    /// a reconstruction verdict, and the topology cross-check line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "campaigns for {} (seed {}, {} stubs, {} regions, window {} periods)\n",
            self.scenario, self.master_seed, self.stub_count, self.regions, self.window_periods,
        );
        if self.campaigns.is_empty() {
            out.push_str("no campaigns reconstructed\n");
        }
        for (i, c) in self.campaigns.iter().enumerate() {
            out.push_str(&format!(
                "CAMPAIGN {}: onset p{}..p{}, {} slave stub(s) across {} region(s), \
                 est aggregate {:.3} syn/s\n",
                i + 1,
                c.first_onset,
                c.last_onset,
                c.members.len(),
                c.regions,
                c.est_total_rate,
            ));
            let shown = c.members.len().min(8);
            let mut line = String::from("  slaves:");
            for m in &c.members[..shown] {
                line.push_str(&format!(" {}@p{}", m.prefix, m.onset_period));
            }
            if c.members.len() > shown {
                line.push_str(&format!(" (+{} more)", c.members.len() - shown));
            }
            line.push('\n');
            out.push_str(&line);
        }
        let implicated = self.implicated();
        let hits = implicated
            .iter()
            .filter(|s| self.attacked.contains(s))
            .count();
        let false_implications = implicated.len() - hits;
        out.push_str(&format!(
            "campaign reconstruction: {} ({}/{} attacked implicated, {} false)\n",
            if self.exact_reconstruction() {
                "EXACT"
            } else {
                "PARTIAL"
            },
            hits,
            self.attacked.len(),
            false_implications,
        ));
        let check = self.topology_cross_check();
        out.push_str(&format!(
            "campaign topology cross-check: {} ({} expected source(s), {} implicated)\n",
            if check.matches() { "MATCH" } else { "MISMATCH" },
            check.expected_sources.len(),
            check.implicated_sources.len(),
        ));
        out
    }
}

/// Per-stub metadata the correlator keeps — O(stubs), captured from the
/// streaming fold.
#[derive(Debug, Clone, Copy)]
struct StubMeta {
    prefix: Ipv4Net,
    attacked: bool,
}

/// The top of the hierarchy: routes each stub's alarm edges to its
/// regional collector, then merges regional clusters whose onset windows
/// overlap into cross-region [`Campaign`]s.
#[derive(Debug, Clone)]
pub struct FleetCorrelator {
    config: CollectorConfig,
    stub_count: usize,
    collectors: Vec<RegionalCollector>,
    meta: Vec<Option<StubMeta>>,
}

impl FleetCorrelator {
    /// A correlator over a `stub_count`-stub fleet.
    pub fn new(config: CollectorConfig, stub_count: usize) -> Self {
        let regions = config.regions.max(1).min(stub_count.max(1));
        FleetCorrelator {
            config,
            stub_count,
            collectors: (0..regions)
                .map(|r| RegionalCollector::new(r, config.window_periods))
                .collect(),
            meta: vec![None; stub_count],
        }
    }

    /// Ingests one stub's fold row: captures its metadata and routes its
    /// alarm edges to the owning region.
    pub fn observe_row(&mut self, row: &StubRow) {
        self.meta[row.index] = Some(StubMeta {
            prefix: row.report.stub,
            attacked: row.report.attacked,
        });
        for &onset in &row.onsets {
            self.observe_onset(onset);
        }
    }

    /// Ingests one bare alarm edge (the property tests replay permuted
    /// edge streams through this).
    pub fn observe_onset(&mut self, onset: AlarmOnset) {
        let region = self.config.region_of(onset.stub, self.stub_count);
        self.collectors[region].observe(onset);
    }

    /// Clusters every region, merges overlapping clusters into
    /// campaigns, and assembles the report.
    pub fn finish(self, scenario: impl Into<String>, master_seed: u64) -> CampaignReport {
        let mut clusters: Vec<RegionalCluster> = self
            .collectors
            .iter()
            .flat_map(RegionalCollector::clusters)
            .collect();
        // Merge across regions: clusters whose onset windows come within
        // the chaining distance of each other describe one campaign.
        clusters.sort_by_key(|c| (c.first_onset, c.region));
        let window = self.config.window_periods;
        let mut merged: Vec<Vec<RegionalCluster>> = Vec::new();
        let mut open_end: u64 = 0;
        for cluster in clusters {
            match merged.last_mut() {
                Some(group) if cluster.first_onset <= open_end + window => {
                    open_end = open_end.max(cluster.last_onset);
                    group.push(cluster);
                }
                _ => {
                    open_end = cluster.last_onset;
                    merged.push(vec![cluster]);
                }
            }
        }
        let campaigns = merged
            .into_iter()
            .map(|group| self.assemble(group))
            .collect();
        let attacked: Vec<usize> = self
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_some_and(|m| m.attacked))
            .map(|(i, _)| i)
            .collect();
        CampaignReport {
            scenario: scenario.into(),
            master_seed,
            stub_count: self.stub_count,
            regions: self.collectors.len(),
            window_periods: window,
            campaigns,
            attacked,
        }
    }

    fn assemble(&self, group: Vec<RegionalCluster>) -> Campaign {
        // One member per stub: earliest onset, largest rate estimate.
        let mut members: Vec<CampaignMember> = Vec::new();
        for cluster in &group {
            for onset in &cluster.onsets {
                let prefix = self.meta[onset.stub]
                    .map(|m| m.prefix)
                    .unwrap_or_else(|| crate::fleet::Scenario::fleet_prefix(onset.stub));
                match members.iter_mut().find(|m| m.stub == onset.stub) {
                    Some(member) => {
                        member.onset_period = member.onset_period.min(onset.onset_period);
                        member.est_rate = member.est_rate.max(onset.est_rate);
                    }
                    None => members.push(CampaignMember {
                        stub: onset.stub,
                        prefix,
                        onset_period: onset.onset_period,
                        est_rate: onset.est_rate,
                        region: cluster.region,
                    }),
                }
            }
        }
        members.sort_by_key(|m| m.stub);
        let mut regions: Vec<usize> = members.iter().map(|m| m.region).collect();
        regions.sort_unstable();
        regions.dedup();
        Campaign {
            first_onset: members.iter().map(|m| m.onset_period).min().unwrap_or(0),
            last_onset: members.iter().map(|m| m.onset_period).max().unwrap_or(0),
            est_total_rate: members.iter().map(|m| m.est_rate).sum(),
            regions: regions.len(),
            members,
        }
    }
}

/// Everything a correlated count-level run produces: fleet-level tallies
/// (no per-stub table — that streamed to CSV, if anywhere) plus the
/// campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedRun {
    /// Fleet size.
    pub stubs: usize,
    /// Longest per-stub period count observed.
    pub periods: u64,
    /// Stubs that raised at least one alarm.
    pub implicated: u64,
    /// Ground-truth attacked stubs.
    pub attacked: u64,
    /// Total false-alarm periods across the fleet.
    pub false_alarm_periods: u64,
    /// Top-K implicated stubs by estimated excess rate, best first.
    pub top: Vec<(Ipv4Net, f64)>,
    /// The correlation tier's verdict.
    pub report: CampaignReport,
}

impl CorrelatedRun {
    /// A byte-stable fleet-level summary (the per-stub table is in the
    /// CSV spill, not here), followed by the campaign report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet {} (seed {}, {} stubs): {} implicated / {} attacked, \
             {} false-alarm period(s), {} period(s)/stub\n",
            self.report.scenario,
            self.report.master_seed,
            self.stubs,
            self.implicated,
            self.attacked,
            self.false_alarm_periods,
            self.periods,
        );
        for (prefix, rate) in &self.top {
            out.push_str(&format!("TOP {prefix} est_excess {rate:.3} syn/s\n"));
        }
        out.push_str(&self.report.render());
        out
    }
}

/// Accumulator threaded through the correlated streaming fold.
struct CorrelatedFold<'a> {
    correlator: FleetCorrelator,
    csv: Option<&'a mut dyn Write>,
    csv_error: Option<io::Error>,
    top: TopK,
    periods: u64,
    implicated: u64,
    attacked: u64,
    false_alarm_periods: u64,
}

impl Fleet {
    /// Count-level run with the correlation tier attached: stubs execute
    /// as a streaming fold ([`Fleet::fold_counts`]), each row spills to
    /// `csv` (if given) the moment it completes, its alarm edges feed
    /// the regional collectors, and only O(stubs) correlation state plus
    /// fleet-level tallies survive the fold. This is the Internet-scale
    /// entry point: 2,000-stub scenarios run in the memory the campaign
    /// report needs, not the memory a per-stub table would.
    ///
    /// Also publishes the fleet rollup gauges (fleet size, implicated
    /// count, top-K spotlight) when a telemetry hub is attached.
    pub fn run_counts_correlated(
        &self,
        config: &CollectorConfig,
        csv: Option<&mut dyn Write>,
    ) -> io::Result<CorrelatedRun> {
        let stubs = self.scenario().stubs.len();
        let mut acc = CorrelatedFold {
            correlator: FleetCorrelator::new(*config, stubs),
            csv,
            csv_error: None,
            top: TopK::new(config.top_k),
            periods: 0,
            implicated: 0,
            attacked: 0,
            false_alarm_periods: 0,
        };
        if let Some(out) = acc.csv.as_deref_mut() {
            crate::fleet::FleetReport::write_csv_header(out)?;
        }
        let mut acc = self.fold_counts(acc, |acc, row| {
            if acc.csv_error.is_none() {
                if let Some(out) = acc.csv.as_deref_mut() {
                    if let Err(e) = row.report.write_csv_row(out) {
                        acc.csv_error = Some(e);
                    }
                }
            }
            acc.periods = acc.periods.max(row.report.periods);
            acc.implicated += u64::from(row.report.implicated);
            acc.attacked += u64::from(row.report.attacked);
            acc.false_alarm_periods += row.report.false_alarm_periods;
            if row.report.implicated {
                let score = row.onsets.iter().map(|o| o.est_rate).fold(0.0f64, f64::max);
                acc.top.offer(row.index, score);
            }
            acc.correlator.observe_row(&row);
        });
        if let Some(e) = acc.csv_error.take() {
            return Err(e);
        }
        let top: Vec<(Ipv4Net, f64)> = acc
            .top
            .items()
            .map(|(index, score)| (self.scenario().stubs[index].stub(), score))
            .collect();
        self.publish_fleet_gauges(acc.implicated, &top);
        let report = acc
            .correlator
            .finish(self.scenario().name.clone(), self.scenario().master_seed);
        Ok(CorrelatedRun {
            stubs,
            periods: acc.periods,
            implicated: acc.implicated,
            attacked: acc.attacked,
            false_alarm_periods: acc.false_alarm_periods,
            top,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Scenario;
    use syndog::SynDogConfig;
    use syndog_sim::{SimDuration, SimTime};
    use syndog_traffic::SiteProfile;

    fn onset(stub: usize, period: u64) -> AlarmOnset {
        AlarmOnset {
            stub,
            onset_period: period,
            alarm_period: period + 3,
            est_rate: 2.0,
        }
    }

    #[test]
    fn region_mapping_matches_the_label_budget_blocks() {
        use syndog_telemetry::LabelBudget;
        let config = CollectorConfig::with_regions(4);
        let mode = LabelBudget::new(4).mode(10);
        for stub in 0..10 {
            assert_eq!(
                Some(config.region_of(stub, 10)),
                mode.group_of(stub),
                "stub {stub}"
            );
        }
    }

    #[test]
    fn collector_chains_onsets_within_the_window() {
        let mut collector = RegionalCollector::new(0, 3);
        for &(stub, p) in &[(0usize, 10u64), (1, 12), (2, 14), (3, 30), (4, 31)] {
            collector.observe(onset(stub, p));
        }
        let clusters = collector.clusters();
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].onsets.len(), 3, "10,12,14 chain");
        assert_eq!(clusters[1].onsets.len(), 2, "30,31 chain");
        assert_eq!(clusters[0].first_onset, 10);
        assert_eq!(clusters[1].first_onset, 30);
    }

    #[test]
    fn clustering_is_invariant_under_arrival_order() {
        let onsets = [
            onset(3, 14),
            onset(0, 10),
            onset(4, 31),
            onset(1, 12),
            onset(2, 30),
        ];
        let mut forward = RegionalCollector::new(0, 3);
        let mut reverse = RegionalCollector::new(0, 3);
        for &o in &onsets {
            forward.observe(o);
        }
        for &o in onsets.iter().rev() {
            reverse.observe(o);
        }
        assert_eq!(forward.clusters(), reverse.clusters());
    }

    #[test]
    fn correlator_merges_cross_region_clusters_into_one_campaign() {
        // 8 stubs, 2 regions; stubs 1 (region 0) and 6 (region 1) onset
        // together → one campaign across two regions.
        let mut correlator = FleetCorrelator::new(CollectorConfig::with_regions(2), 8);
        correlator.observe_onset(onset(1, 20));
        correlator.observe_onset(onset(6, 21));
        let report = correlator.finish("x", 7);
        assert_eq!(report.campaigns.len(), 1);
        let campaign = &report.campaigns[0];
        let stubs: Vec<usize> = campaign.members.iter().map(|m| m.stub).collect();
        assert_eq!(stubs, vec![1, 6]);
        assert_eq!(campaign.regions, 2);
        assert!((campaign.est_total_rate - 4.0).abs() < 1e-9);
    }

    #[test]
    fn distant_onsets_stay_separate_campaigns() {
        let mut correlator = FleetCorrelator::new(CollectorConfig::with_regions(2), 8);
        correlator.observe_onset(onset(1, 20));
        correlator.observe_onset(onset(6, 90));
        let report = correlator.finish("x", 7);
        assert_eq!(report.campaigns.len(), 2);
    }

    #[test]
    fn end_to_end_distributed_flood_reconstructs_exactly() {
        // 12 stubs, 4 attacked at 3 SYN/s each — far below a big-vantage
        // f_min, yet one campaign to the correlator.
        let template = SiteProfile::lbl().with_duration(SimDuration::from_secs(1200));
        let scenario = Scenario::distributed_flood(
            "mini-ddos",
            &template,
            12,
            &[2, 5, 7, 10],
            12.0,
            SimTime::from_secs(400),
            "192.0.2.80:80".parse().unwrap(),
            SynDogConfig::paper_default(),
            31,
        );
        let fleet = Fleet::new(scenario);
        let run = fleet
            .run_counts_correlated(&CollectorConfig::with_regions(3), None)
            .expect("no CSV writer, no IO");
        assert_eq!(run.stubs, 12);
        assert_eq!(run.attacked, 4);
        assert!(run.report.exact_reconstruction(), "{}", run.report.render());
        assert_eq!(run.report.campaigns.len(), 1, "{}", run.report.render());
        assert!(run.report.topology_cross_check().matches());
        let rendered = run.render();
        assert!(rendered.contains("CAMPAIGN 1:"));
        assert!(rendered.contains("campaign topology cross-check: MATCH"));
    }

    #[test]
    fn correlated_run_streams_csv_rows() {
        let template = SiteProfile::lbl().with_duration(SimDuration::from_secs(600));
        let scenario = Scenario::uniform("csv", &template, 5, SynDogConfig::paper_default(), 3);
        let fleet = Fleet::new(scenario);
        let mut csv = Vec::new();
        let run = fleet
            .run_counts_correlated(&CollectorConfig::default(), Some(&mut csv))
            .unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert!(text.starts_with("stub,prefix,"));
        assert_eq!(text.lines().count(), 6, "header + 5 rows");
        // The spill matches the in-memory writer byte for byte.
        assert_eq!(text, fleet.run_counts().to_csv());
        assert_eq!(run.implicated, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Collector clustering is a pure function of the onset *set*:
        /// permuting the arrival order (and hence which worker/stub order
        /// delivered the edges) never changes the campaign report.
        #[test]
        fn clustering_is_invariant_under_onset_permutation(
            onsets in proptest::collection::vec(
                (0usize..64, 0u64..120, 0.5f64..20.0),
                1..40,
            ),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let build = |order: &[(usize, u64, f64)]| {
                let mut correlator =
                    FleetCorrelator::new(CollectorConfig::with_regions(4), 64);
                for &(stub, onset_period, est_rate) in order {
                    correlator.observe_onset(AlarmOnset {
                        stub,
                        onset_period,
                        alarm_period: onset_period + 3,
                        est_rate,
                    });
                }
                correlator.finish("perm", 11)
            };
            let forward = build(&onsets);
            let mut shuffled = onsets.clone();
            // Deterministic Fisher–Yates driven by the proptest seed.
            let mut state = seed | 1;
            for i in (1..shuffled.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            let permuted = build(&shuffled);
            proptest::prop_assert_eq!(forward.render(), permuted.render());
            proptest::prop_assert_eq!(forward, permuted);
        }
    }
}
