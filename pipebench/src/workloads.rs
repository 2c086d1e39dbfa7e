//! The four workloads: the input each one builds, the untraced operator
//! path it drives, the decisions that path reaches, and the checks those
//! decisions must pass.

use syndog::{Detection, DetectorKind, SynDogConfig};
use syndog_net::Ipv4Net;
use syndog_router::{
    Fleet, KeyMode, MitigationEngine, MitigationPolicy, PcapSource, StubReport, SynDogAgent,
};
use syndog_sim::{Parallelism, SimDuration};
use syndog_traffic::sites::OBSERVATION_PERIOD;
use syndog_traffic::{Direction, Trace};

use crate::capture;
use crate::laps::{Laps, Marked, MARK_RECORDS, MARK_STUBS};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `detect --mitigate --throttle-key fingerprint` on UNC plus a flood.
    FloodDetect,
    /// `sniff` on the same capture bytes.
    FloodSniff,
    /// The record path on UNC plus a flash crowd, `syn-cusum` detector,
    /// `/24`-keyed mitigation with exoneration.
    FlashCrowdDetect,
    /// `Fleet::fold_counts` on one worker over the LBL fleet.
    FleetCounts,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FloodDetect,
        Workload::FloodSniff,
        Workload::FlashCrowdDetect,
        Workload::FleetCounts,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodDetect => "unc-flood-detect",
            Workload::FloodSniff => "unc-flood-sniff",
            Workload::FlashCrowdDetect => "unc-flashcrowd-detect",
            Workload::FleetCounts => "lbl-fleet-counts",
        }
    }

    /// Why the workload is in the benchmark (the `BENCHMARK.json` `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FloodDetect => {
                "whole detect path with fingerprint throttles engaged 30 periods: import, \
                 fingerprinting and bucketed mitigation all do real work"
            }
            Workload::FloodSniff => {
                "same bytes through the streaming sniff path: decode and classify without a \
                 materialized trace, fingerprints or mitigation"
            }
            Workload::FlashCrowdDetect => {
                "benign 2x surge: census, entropy and exoneration run every surge period and \
                 no throttle bucket is ever created"
            }
            Workload::FleetCounts => {
                "no frames: count generation, detector steps and count throttling over \
                 4,000 stubs on one worker"
            }
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one offered item is: a frame, or a stub-period.
    pub fn item(self) -> &'static str {
        match self {
            Workload::FleetCounts => "stub-period",
            _ => "frame",
        }
    }
}

/// A capture held in memory as pcap bytes.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The pcap file.
    pub bytes: Vec<u8>,
    /// The stub prefix the capture was taken at.
    pub stub: Ipv4Net,
    /// Frames in the file.
    pub frames: u64,
    /// The nominal span the flood or surge window is laid out on.
    pub span: SimDuration,
    /// The span the capture's frames actually cover.
    pub covered: SimDuration,
    /// First-alarm period of the paper detector run over the generated
    /// trace before export, when the workload checks against it.
    pub reference_alarm: Option<u64>,
}

/// A workload's input, built before the rounds and again at the run's
/// later set-up points.
#[derive(Debug, Clone)]
pub enum Input {
    /// Record path: `Trace::read_pcap`, then `SynDogAgent::filter_record`
    /// per record and `close_periods_to`.
    Detect {
        /// The capture.
        capture: Capture,
        /// Detection strategy.
        detector: DetectorKind,
        /// Mitigation policy armed on the agent.
        policy: MitigationPolicy,
    },
    /// Streaming path: `PcapSource` into `SynDogAgent::run_source`.
    Sniff(Capture),
    /// Count path: `Fleet::fold_counts` on one worker.
    Fleet(Fleet),
}

impl Input {
    /// Builds the workload's input from the seed; `quick` shrinks it to a
    /// two-minute capture or a 40-stub fleet. A capture build marks a lap
    /// on `laps` once the trace is generated, once the reference detector
    /// has run, and while it writes the pcap (see [`crate::laps`]).
    pub fn build(workload: Workload, seed: u64, quick: bool, laps: &mut Laps) -> Input {
        if workload == Workload::FleetCounts {
            let stubs = if quick {
                capture::QUICK_FLEET_STUBS
            } else {
                capture::FLEET_STUBS
            };
            return Input::Fleet(
                Fleet::new(capture::fleet_scenario(seed, stubs))
                    .with_parallelism(Parallelism::Fixed(1)),
            );
        }
        let size = if quick {
            capture::QUICK_CAPTURE
        } else {
            capture::FULL_CAPTURE
        };
        let stub = capture::unc(size.span).stub();
        let (trace, reference_alarm) = if workload == Workload::FlashCrowdDetect {
            let trace = capture::flash_crowd_trace(seed, size);
            laps.mark();
            (trace, None)
        } else {
            let trace = capture::flood_trace(seed, size);
            laps.mark();
            let mut agent = SynDogAgent::new(stub, SynDogConfig::paper_default());
            agent.run_trace(&trace);
            laps.mark();
            let alarm = agent.first_alarm().map(|a| a.period);
            (trace, alarm)
        };
        let capture = Capture {
            bytes: capture::to_pcap(&trace, laps),
            stub,
            frames: trace.len() as u64,
            span: size.span,
            covered: trace.duration(),
            reference_alarm,
        };
        match workload {
            Workload::FloodSniff => Input::Sniff(capture),
            Workload::FloodDetect => Input::Detect {
                capture,
                detector: DetectorKind::Syndog,
                policy: MitigationPolicy::paper_default().with_key_mode(KeyMode::Fingerprint),
            },
            _ => Input::Detect {
                capture,
                detector: DetectorKind::SynCusum,
                policy: MitigationPolicy::paper_default().with_key_mode(KeyMode::Prefix),
            },
        }
    }

    /// The capture, for the frame workloads.
    pub fn capture(&self) -> Option<&Capture> {
        match self {
            Input::Detect { capture, .. } | Input::Sniff(capture) => Some(capture),
            Input::Fleet(_) => None,
        }
    }

    /// Items one round offers: frames, or stub-periods.
    pub fn items(&self) -> u64 {
        match self {
            Input::Detect { capture, .. } | Input::Sniff(capture) => capture.frames,
            Input::Fleet(fleet) => fleet
                .scenario()
                .stubs
                .iter()
                .map(|s| s.site.periods() as u64)
                .sum(),
        }
    }

    /// Input facts for the run record.
    pub fn facts(&self) -> Vec<(&'static str, String)> {
        match self {
            Input::Detect { capture, .. } | Input::Sniff(capture) => vec![
                ("capture_frames", capture.frames.to_string()),
                ("capture_bytes", capture.bytes.len().to_string()),
                ("capture_secs", format!("{}", capture.covered.as_secs_f64())),
            ],
            Input::Fleet(fleet) => {
                let scenario = fleet.scenario();
                vec![
                    ("fleet_stubs", scenario.stubs.len().to_string()),
                    (
                        "fleet_attacked",
                        scenario.attacked_indices().len().to_string(),
                    ),
                    ("fleet_stub_periods", self.items().to_string()),
                ]
            }
        }
    }
}

/// FNV-1a over 64-bit words: a compact fingerprint of a decision stream.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an optional period in (`None` is distinct from every period).
    pub fn add_opt(&mut self, word: Option<u64>) {
        self.add(word.map_or(u64::MAX, |w| w));
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// What one round decided: the numbers the checks read, plus a digest of
/// every per-period decision so two rounds (or a traced and an untraced
/// round) can be compared exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Decisions {
    /// Detector decisions made (stub-periods closed).
    pub periods: u64,
    /// First alarming period (record and frame paths).
    pub first_alarm: Option<u64>,
    /// Throttle engagements (engaged stubs for the fleet).
    pub engagements: u64,
    /// Would-be engagements stood down as flash crowds.
    pub exonerated: u64,
    /// SYNs throttled.
    pub throttled: u64,
    /// Legitimate SYNs throttled.
    pub collateral: u64,
    /// Distinct SYN fingerprints in the mitigation census.
    pub distinct_fingerprints: u64,
    /// Stubs hosting an attacker (fleet only).
    pub attacked: u64,
    /// Attacked stubs that raised an alarm (fleet only).
    pub attacked_implicated: u64,
    /// Digest of every detection and mitigation transition, in order.
    pub digest: u64,
}

impl Decisions {
    /// The decisions of one record- or frame-driven agent run.
    pub fn of_agent(detections: &[Detection], engine: Option<&MitigationEngine>) -> Decisions {
        let mut digest = Digest::default();
        for d in detections {
            digest.add(d.period);
            digest.add(d.delta.to_bits());
            digest.add(d.k_average.to_bits());
            digest.add(d.x.to_bits());
            digest.add(d.statistic.to_bits());
            digest.add(u64::from(d.alarm));
        }
        let mut decisions = Decisions {
            periods: detections.len() as u64,
            first_alarm: detections.iter().find(|d| d.alarm).map(|d| d.period),
            ..Decisions::default()
        };
        if let Some(engine) = engine {
            let stats = engine.stats();
            decisions.engagements = stats.engagements;
            decisions.exonerated = stats.exonerated_periods;
            decisions.throttled = stats.throttled_syns;
            decisions.collateral = stats.collateral_syns;
            decisions.distinct_fingerprints = engine.fingerprints().distinct() as u64;
            digest.add_opt(engine.engaged_at());
            digest.add_opt(engine.released_at());
            digest.add(stats.releases);
            digest.add(stats.passed_syns);
            digest.add(stats.attack_syns_forwarded);
        }
        decisions.digest = digest.value();
        decisions
    }

    /// Folds one fleet stub's outcome in; stubs must arrive in index order.
    pub fn add_stub(&mut self, stub: &StubOutcome) {
        let mut digest = Digest(self.digest);
        digest.add(stub.periods);
        digest.add_opt(stub.first_alarm);
        digest.add_opt(stub.engaged_at);
        digest.add_opt(stub.released_at);
        digest.add(stub.throttled);
        self.digest = digest.value();
        self.periods += stub.periods;
        self.engagements += u64::from(stub.engaged_at.is_some());
        self.throttled += stub.throttled;
        self.attacked += u64::from(stub.attacked);
        self.attacked_implicated += u64::from(stub.attacked && stub.first_alarm.is_some());
    }
}

/// One fleet stub's outcome, as far as the benchmark compares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StubOutcome {
    /// Periods the stub's agent closed.
    pub periods: u64,
    /// Its first alarming period.
    pub first_alarm: Option<u64>,
    /// Period its throttles last engaged at.
    pub engaged_at: Option<u64>,
    /// Period its throttles last released at.
    pub released_at: Option<u64>,
    /// SYNs its count-level throttle shed.
    pub throttled: u64,
    /// Whether the scenario planted an attacker there.
    pub attacked: bool,
}

impl StubOutcome {
    fn of_report(report: &StubReport) -> StubOutcome {
        StubOutcome {
            periods: report.periods,
            first_alarm: report.first_alarm_period,
            engaged_at: report.engaged_period,
            released_at: report.release_period,
            throttled: report.throttled_syns,
            attacked: report.attacked,
        }
    }
}

/// What one round produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The decisions reached.
    pub decisions: Decisions,
    /// Items offered but rejected, malformed or skipped.
    pub failed: u64,
}

/// Runs one untraced round: the operator's path through its public entry
/// points, from a fresh pipeline. `laps` cuts the round into segments at
/// fixed points of the input (see [`crate::laps`]).
pub fn run_round(input: &Input, laps: &mut Laps) -> Outcome {
    laps.start();
    let outcome = match input {
        Input::Detect {
            capture,
            detector,
            policy,
        } => detect_round(capture, *detector, *policy, laps),
        Input::Sniff(capture) => sniff_round(capture, laps),
        Input::Fleet(fleet) => fleet_round(fleet, input.items(), laps),
    };
    laps.mark();
    outcome
}

fn detect_round(
    capture: &Capture,
    detector: DetectorKind,
    policy: MitigationPolicy,
    laps: &mut Laps,
) -> Outcome {
    let trace = Trace::read_pcap(Marked::new(capture.bytes.as_slice(), laps), capture.stub)
        .expect("an in-memory capture imports");
    laps.mark();
    let mut agent =
        SynDogAgent::with_detector(capture.stub, detector.build(SynDogConfig::paper_default()));
    agent.set_mitigation(policy);
    // Square off to the capture's span, as `syndog detect` does.
    let period = agent.router().period();
    let last = trace.duration().as_micros().div_ceil(period.as_micros());
    let mut skipped = 0;
    for (i, record) in trace.records().iter().enumerate() {
        if i % MARK_RECORDS == MARK_RECORDS - 1 {
            laps.mark();
        }
        if record.time.period_index(period) >= last {
            skipped += 1;
            continue;
        }
        agent.filter_record(record);
    }
    agent.close_periods_to(last);
    Outcome {
        decisions: Decisions::of_agent(agent.detections(), agent.mitigation()),
        failed: capture.frames - trace.len() as u64 + skipped,
    }
}

fn sniff_round(capture: &Capture, laps: &mut Laps) -> Outcome {
    let source = PcapSource::new(Marked::new(capture.bytes.as_slice(), laps), capture.stub)
        .expect("pcap header is valid");
    let mut agent = SynDogAgent::new(capture.stub, SynDogConfig::paper_default());
    agent
        .run_source(source)
        .expect("an in-memory capture streams");
    let router = agent.router();
    Outcome {
        decisions: Decisions::of_agent(agent.detections(), None),
        failed: router.sniffer(Direction::Outbound).malformed()
            + router.sniffer(Direction::Inbound).malformed(),
    }
}

fn fleet_round(fleet: &Fleet, offered: u64, laps: &mut Laps) -> Outcome {
    let mut folded = 0;
    let decisions = fleet.fold_counts(Decisions::default(), |acc, row| {
        acc.add_stub(&StubOutcome::of_report(&row.report));
        folded += 1;
        if folded % MARK_STUBS == 0 {
            laps.mark();
        }
    });
    Outcome {
        decisions,
        failed: offered - decisions.periods,
    }
}

/// One named check and its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Stable check name.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// What was observed.
    pub detail: String,
}

impl Check {
    /// A check with its observation.
    pub fn new(name: &'static str, pass: bool, detail: String) -> Check {
        Check { name, pass, detail }
    }
}

/// The workload's pinned expectations on one round's outcome. They hold
/// for every seed; `quick` drops those that need the full-size input (a
/// two-minute capture has a one-period flood window).
pub fn expectations(
    workload: Workload,
    input: &Input,
    outcome: &Outcome,
    quick: bool,
) -> Vec<Check> {
    let d = &outcome.decisions;
    let mut checks = vec![Check::new(
        "nothing-rejected",
        outcome.failed == 0,
        format!("{} {}s failed", outcome.failed, workload.item()),
    )];
    if let Some(capture) = input.capture() {
        if workload != Workload::FlashCrowdDetect {
            checks.push(Check::new(
                "first-alarm-matches-trace-reference",
                d.first_alarm == capture.reference_alarm && (quick || d.first_alarm.is_some()),
                format!(
                    "first alarm {:?}, reference {:?}",
                    d.first_alarm, capture.reference_alarm
                ),
            ));
            if !quick {
                let (start, length) = capture::event_window(capture.span);
                let first = start.period_index(OBSERVATION_PERIOD);
                let end = (start + length).period_index(OBSERVATION_PERIOD);
                checks.push(Check::new(
                    "first-alarm-in-flood-window",
                    d.first_alarm.is_some_and(|p| (first..end).contains(&p)),
                    format!(
                        "first alarm {:?}, flood periods {first}..{end}",
                        d.first_alarm
                    ),
                ));
            }
        }
    }
    match workload {
        Workload::FloodDetect => {
            if !quick {
                checks.push(Check::new(
                    "flood-throttle-engages",
                    d.engagements >= 1 && d.throttled > 0,
                    format!(
                        "{} engagements, {} SYNs throttled",
                        d.engagements, d.throttled
                    ),
                ));
            }
            checks.push(Check::new(
                "flood-zero-collateral",
                d.collateral == 0,
                format!("{} legitimate SYNs throttled", d.collateral),
            ));
        }
        Workload::FlashCrowdDetect => {
            checks.push(Check::new(
                "crowd-never-engages",
                d.engagements == 0 && d.throttled == 0,
                format!(
                    "{} engagements, {} SYNs throttled",
                    d.engagements, d.throttled
                ),
            ));
            if !quick {
                checks.push(Check::new(
                    "crowd-exonerated",
                    d.exonerated >= 1,
                    format!("{} surge periods exonerated", d.exonerated),
                ));
            }
        }
        Workload::FleetCounts => checks.push(Check::new(
            "every-attacked-stub-implicated",
            d.attacked > 0 && d.attacked_implicated == d.attacked,
            format!(
                "{} of {} attacked stubs implicated",
                d.attacked_implicated, d.attacked
            ),
        )),
        Workload::FloodSniff => {}
    }
    checks
}
