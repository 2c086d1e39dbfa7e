//! The traced run: each workload's path rebuilt from the public calls of
//! its layers, with a span recorded around every call into a layer.
//!
//! Spans stay in memory; the run folds each round into per-layer self
//! times and, under `--out`, writes every span when it ends. Per-frame
//! layers get one span per batch of up to [`BATCH`] calls, per-period
//! layers one span per call. A span's self time is its duration minus the
//! time its child spans cover.

use std::io::Write;
use std::mem::size_of;
use std::time::Instant;

use syndog::{AnyDetector, Detection, DetectorKind, PeriodSignals, SynDogConfig};
use syndog_fingerprint::extract_syn;
use syndog_net::pcap::PcapReader;
use syndog_net::{classify, Ipv4Net, Packet, SegmentKind};
use syndog_router::{
    EventBatch, Fleet, FrameSource, LeafRouter, MitigationEngine, MitigationPolicy, PcapSource,
    DEFAULT_BATCH_SIZE,
};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::sites::OBSERVATION_PERIOD;
use syndog_traffic::{Direction, Trace, TraceRecord};

use crate::workloads::{Capture, Decisions, Input, Outcome, StubOutcome};

/// Calls per span for per-frame layers (the pipeline's batch size).
pub const BATCH: usize = DEFAULT_BATCH_SIZE;

/// A layer boundary the trace records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole round (the root span).
    Round,
    /// `PcapReader::next_packet`.
    NetPcap,
    /// `syndog_net::classify`.
    NetClassify,
    /// `Packet::decode`.
    NetPacket,
    /// `syndog_fingerprint::extract_syn`.
    FingerprintExtract,
    /// `Trace::read_pcap`'s own work: record assembly and direction tags.
    TraceImport,
    /// `Trace::from_records` (the time sort).
    TraceSort,
    /// `PcapSource::next_batch`.
    RouterSource,
    /// The agent loop's own work (`filter_record` / `run_source`).
    RouterAgent,
    /// `LeafRouter::observe_record` / `observe_event`.
    RouterTally,
    /// `LeafRouter::advance_to` / `take_period_sample`.
    RouterClose,
    /// `Detector::observe`.
    CoreDetect,
    /// `MitigationEngine::on_detection`.
    MitigateGate,
    /// `MitigationEngine::process` while throttles are engaged.
    JudgeEngaged,
    /// `MitigationEngine::process` while disengaged.
    JudgeDisengaged,
    /// `MitigationEngine::count_throttle`.
    CountThrottle,
    /// `SiteProfile::generate_period_counts`.
    TrafficSites,
    /// `SynFlood::period_counts`.
    AttackFlood,
    /// One fleet stub's job, less the layers above.
    FleetStub,
}

impl Layer {
    /// Every layer below the root, in report order.
    pub const MEASURED: [Layer; 18] = [
        Layer::NetPcap,
        Layer::NetClassify,
        Layer::NetPacket,
        Layer::FingerprintExtract,
        Layer::TraceImport,
        Layer::TraceSort,
        Layer::RouterSource,
        Layer::RouterAgent,
        Layer::RouterTally,
        Layer::RouterClose,
        Layer::CoreDetect,
        Layer::MitigateGate,
        Layer::JudgeEngaged,
        Layer::JudgeDisengaged,
        Layer::CountThrottle,
        Layer::TrafficSites,
        Layer::AttackFlood,
        Layer::FleetStub,
    ];

    /// The layer's slot in [`Layer::MEASURED`].
    fn slot(self) -> usize {
        Layer::MEASURED
            .iter()
            .position(|l| *l == self)
            .expect("every non-root layer is measured")
    }

    /// The layer's metric name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "round",
            Layer::NetPcap => "net.pcap",
            Layer::NetClassify => "net.classify",
            Layer::NetPacket => "net.packet",
            Layer::FingerprintExtract => "fingerprint.extract",
            Layer::TraceImport => "traffic.trace.import",
            Layer::TraceSort => "traffic.trace.sort",
            Layer::RouterSource => "router.source",
            Layer::RouterAgent => "router.agent",
            Layer::RouterTally => "router.tally",
            Layer::RouterClose => "router.close",
            Layer::CoreDetect => "core.detect",
            Layer::MitigateGate => "router.mitigate.gate",
            Layer::JudgeEngaged => "router.mitigate.judge.engaged",
            Layer::JudgeDisengaged => "router.mitigate.judge.disengaged",
            Layer::CountThrottle => "router.mitigate.count_throttle",
            Layer::TrafficSites => "traffic.sites",
            Layer::AttackFlood => "attack.flood",
            Layer::FleetStub => "router.fleet.stub",
        }
    }
}

/// Index a root span carries as its parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Operations (calls, or items for a batch span) the span covers.
    pub ops: u32,
    /// The round the span belongs to.
    pub round: u32,
    /// The layer.
    pub layer: Layer,
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    round: u32,
    round_start: usize,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            round: 0,
            round_start: 0,
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder started.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    #[inline]
    pub fn push(&mut self, layer: Layer, parent: u32, start: u64, end: u64, ops: usize) -> u32 {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            start,
            end,
            parent,
            ops: ops as u32,
            round: self.round,
            layer,
        });
        index
    }

    /// Opens a span now; [`Recorder::close`] ends it.
    pub fn open(&mut self, layer: Layer, parent: u32) -> u32 {
        let now = self.now();
        self.push(layer, parent, now, now, 0)
    }

    /// Ends an open span now.
    pub fn close(&mut self, span: u32, ops: usize) {
        let now = self.now();
        let span = &mut self.spans[span as usize];
        span.end = now;
        span.ops = ops as u32;
    }

    /// Folds the current round's spans into `totals` and starts the next
    /// round, keeping the spans only when `keep` is set.
    pub fn finish_round(&mut self, totals: &mut LayerTotals, keep: bool) {
        let round = &self.spans[self.round_start..];
        let mut covered = vec![0u64; round.len()];
        for span in round {
            if span.parent != NO_PARENT {
                covered[span.parent as usize - self.round_start] += span.end - span.start;
            }
        }
        for (span, covered) in round.iter().zip(covered) {
            let self_ns = (span.end - span.start).saturating_sub(covered);
            if span.layer == Layer::Round {
                totals.wall_ns += span.end - span.start;
            } else {
                let i = span.layer.slot();
                totals.self_ns[i] += self_ns;
                totals.ops[i] += u64::from(span.ops);
            }
        }
        if !keep {
            self.spans.clear();
        }
        self.round_start = self.spans.len();
        self.round += 1;
    }

    /// Writes every kept span as CSV.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_csv(&self, out: &mut dyn Write) -> std::io::Result<()> {
        writeln!(out, "index,round,layer,parent,start_ns,end_ns,ops")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{},{},{parent},{},{},{}",
                s.round,
                s.layer.name(),
                s.start,
                s.end,
                s.ops
            )?;
        }
        Ok(())
    }
}

/// Per-layer self time and operation counts, summed over traced rounds.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Self time per [`Layer::MEASURED`] entry.
    pub self_ns: [u64; Layer::MEASURED.len()],
    /// Operations per [`Layer::MEASURED`] entry.
    pub ops: [u64; Layer::MEASURED.len()],
    /// Root (round) span time.
    pub wall_ns: u64,
}

impl LayerTotals {
    /// Self nanoseconds per operation of `layer`, 0 when it never ran.
    pub fn ns_per_op(&self, layer: Layer) -> f64 {
        let i = layer.slot();
        if self.ops[i] == 0 {
            0.0
        } else {
            self.self_ns[i] as f64 / self.ops[i] as f64
        }
    }

    /// Operations `layer` performed.
    pub fn ops_of(&self, layer: Layer) -> u64 {
        self.ops[layer.slot()]
    }

    /// Layer self times summed, over the rounds' wall time.
    pub fn self_sum_ratio(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / self.wall_ns.max(1) as f64
    }
}

/// Counts a traced round observes beyond its decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observed {
    /// SYN frames offered to fingerprint extraction.
    pub syns: u64,
    /// Of those, SYNs that yielded a fingerprint.
    pub fingerprinted: u64,
    /// Bytes of the materialized trace's records.
    pub trace_bytes: u64,
}

/// Runs one traced round of the input's path.
pub fn run_round(input: &Input, rec: &mut Recorder) -> (Outcome, Observed) {
    match input {
        Input::Detect {
            capture,
            detector,
            policy,
        } => detect(capture, *detector, *policy, rec),
        Input::Sniff(capture) => (sniff(capture, rec), Observed::default()),
        Input::Fleet(fleet) => (self::fleet(fleet, input.items(), rec), Observed::default()),
    }
}

/// `SynDogAgent` taken apart: its router, detector and engine driven
/// separately so each call can be timed.
struct Agent {
    router: LeafRouter,
    detector: AnyDetector,
    engine: Option<MitigationEngine>,
    detections: Vec<Detection>,
}

impl Agent {
    fn new(stub: Ipv4Net, detector: AnyDetector, policy: Option<MitigationPolicy>) -> Agent {
        let config = *detector.config();
        Agent {
            router: LeafRouter::new(
                stub,
                SimDuration::from_secs_f64(config.observation_period_secs),
            ),
            engine: policy.map(|p| MitigationEngine::new(stub, &config, p)),
            detector,
            detections: Vec::new(),
        }
    }

    /// `SynDogAgent::observe_period`: the detector, then the gate.
    fn observe_period(&mut self, sample: PeriodSignals, rec: &mut Recorder, parent: u32) {
        let t0 = rec.now();
        let detection = self.detector.observe(sample);
        let t1 = rec.now();
        rec.push(Layer::CoreDetect, parent, t0, t1, 1);
        if let Some(engine) = &mut self.engine {
            engine.on_detection(&detection, detection.period);
            let t2 = rec.now();
            rec.push(Layer::MitigateGate, parent, t1, t2, 1);
        }
        self.detections.push(detection);
    }

    /// Closes every period ending at or before `now`, each through the
    /// detector and gate.
    fn advance_to(
        &mut self,
        now: SimTime,
        closed: &mut Vec<PeriodSignals>,
        rec: &mut Recorder,
        parent: u32,
    ) {
        let span = rec.open(Layer::RouterClose, parent);
        self.router.advance_to(now, closed);
        let periods = closed.len();
        for sample in closed.drain(..) {
            self.observe_period(sample, rec, span);
        }
        rec.close(span, periods);
    }

    fn decisions(&self) -> Decisions {
        Decisions::of_agent(&self.detections, self.engine.as_ref())
    }
}

/// `Trace::read_pcap`, staged per batch: read, classify, decode,
/// fingerprint, then assemble the batch's records. The trace it returns
/// must equal `read_pcap`'s on the same bytes, record for record.
pub fn import(capture: &Capture, rec: &mut Recorder, parent: u32, seen: &mut Observed) -> Trace {
    let span = rec.open(Layer::TraceImport, parent);
    let mut reader = PcapReader::new(capture.bytes.as_slice()).expect("pcap header is valid");
    let mut packets = Vec::with_capacity(BATCH);
    let mut kinds = Vec::with_capacity(BATCH);
    let mut decoded = Vec::with_capacity(BATCH);
    let mut fps = Vec::with_capacity(BATCH);
    let mut records = Vec::new();
    let mut max_time = SimDuration::ZERO;
    loop {
        let t0 = rec.now();
        packets.clear();
        while packets.len() < BATCH {
            match reader.next_packet().expect("an in-memory capture reads") {
                Some(packet) => packets.push(packet),
                None => break,
            }
        }
        if packets.is_empty() {
            break;
        }
        let t1 = rec.now();
        rec.push(Layer::NetPcap, span, t0, t1, packets.len());
        kinds.clear();
        kinds.extend(packets.iter().map(|p| classify(&p.data).ok()));
        let t2 = rec.now();
        rec.push(Layer::NetClassify, span, t1, t2, packets.len());
        decoded.clear();
        decoded.extend(
            packets
                .iter()
                .zip(&kinds)
                .map(|(p, kind)| kind.and_then(|_| Packet::decode(&p.data).ok())),
        );
        let t3 = rec.now();
        rec.push(
            Layer::NetPacket,
            span,
            t2,
            t3,
            kinds.iter().flatten().count(),
        );
        fps.clear();
        let mut syns = 0;
        for ((p, kind), packet) in packets.iter().zip(&kinds).zip(&decoded) {
            let fp = if *kind == Some(SegmentKind::Syn) && packet.is_some() {
                syns += 1;
                extract_syn(&p.data).map_or(0, |key| key.to_bits())
            } else {
                0
            };
            fps.push(fp);
        }
        let t4 = rec.now();
        rec.push(Layer::FingerprintExtract, span, t3, t4, syns);
        seen.syns += syns as u64;
        for (((p, kind), packet), &fp) in packets.iter().zip(&kinds).zip(&decoded).zip(&fps) {
            let (Some(kind), Some(packet)) = (*kind, packet) else {
                continue;
            };
            let (src, dst) = match (packet.src_socket(), packet.dst_socket()) {
                (Some(s), Some(d)) => (s, d),
                _ => (
                    std::net::SocketAddrV4::new(packet.ipv4.src, 0),
                    std::net::SocketAddrV4::new(packet.ipv4.dst, 0),
                ),
            };
            let direction = if capture.stub.contains(*dst.ip()) {
                Direction::Inbound
            } else {
                Direction::Outbound
            };
            let time = SimTime::from_micros(
                u64::from(p.ts_sec) * 1_000_000 + u64::from(p.ts_nanos) / 1000,
            );
            max_time = max_time.max(time.saturating_since(SimTime::ZERO));
            seen.fingerprinted += u64::from(fp != 0);
            records.push(TraceRecord {
                time,
                direction,
                kind,
                src,
                dst,
                src_mac: packet.ethernet.src,
                fp,
            });
        }
    }
    let t0 = rec.now();
    let trace = Trace::from_records(records, max_time + SimDuration::from_micros(1));
    let t1 = rec.now();
    rec.push(Layer::TraceSort, span, t0, t1, trace.len());
    seen.trace_bytes = (trace.len() * size_of::<TraceRecord>()) as u64;
    rec.close(span, trace.len());
    trace
}

/// The detect path: import, then `filter_record` per record and
/// `close_periods_to`. Records of one period are tallied, then judged, as
/// a run: neither call reads what the other writes, and periods close
/// between runs exactly where `filter_record` would close them.
fn detect(
    capture: &Capture,
    detector: DetectorKind,
    policy: MitigationPolicy,
    rec: &mut Recorder,
) -> (Outcome, Observed) {
    let root = rec.open(Layer::Round, NO_PARENT);
    let mut seen = Observed::default();
    let trace = import(capture, rec, root, &mut seen);
    let span = rec.open(Layer::RouterAgent, root);
    let mut agent = Agent::new(
        capture.stub,
        detector.build(SynDogConfig::paper_default()),
        Some(policy),
    );
    let period = agent.router.period();
    let last = trace.duration().as_micros().div_ceil(period.as_micros());
    let mut skipped = 0;
    let mut closed = Vec::new();
    for batch in trace.records().chunks(BATCH) {
        for run in batch.chunk_by(|a, b| a.time.period_index(period) == b.time.period_index(period))
        {
            let p = run[0].time.period_index(period);
            if p >= last {
                skipped += run.len() as u64;
                continue;
            }
            if agent.router.current_period() < p {
                agent.advance_to(run[0].time, &mut closed, rec, span);
            }
            let t0 = rec.now();
            for record in run {
                agent.router.observe_record(record);
            }
            let t1 = rec.now();
            rec.push(Layer::RouterTally, span, t0, t1, run.len());
            let engine = agent.engine.as_mut().expect("the record path is mitigated");
            let layer = if engine.is_engaged() {
                Layer::JudgeEngaged
            } else {
                Layer::JudgeDisengaged
            };
            for record in run {
                engine.process(record);
            }
            let t2 = rec.now();
            rec.push(layer, span, t1, t2, run.len());
        }
    }
    while agent.router.current_period() < last {
        let close = rec.open(Layer::RouterClose, span);
        let sample = agent.router.take_period_sample();
        agent.observe_period(sample, rec, close);
        rec.close(close, 1);
    }
    rec.close(span, trace.len());
    rec.close(root, capture.frames as usize);
    let outcome = Outcome {
        decisions: agent.decisions(),
        failed: capture.frames - trace.len() as u64 + skipped,
    };
    (outcome, seen)
}

/// The sniff path: `PcapSource` batches through `LeafRouter::ingest`'s
/// loop, then the detector over every closed period, as `run_source`
/// does.
fn sniff(capture: &Capture, rec: &mut Recorder) -> Outcome {
    let root = rec.open(Layer::Round, NO_PARENT);
    let span = rec.open(Layer::RouterAgent, root);
    let mut agent = Agent::new(
        capture.stub,
        DetectorKind::Syndog.build(SynDogConfig::paper_default()),
        None,
    );
    let period = agent.router.period();
    let mut source =
        PcapSource::new(capture.bytes.as_slice(), capture.stub).expect("pcap header is valid");
    let mut batch = EventBatch::new();
    let mut samples = Vec::new();
    let mut frames = 0;
    loop {
        let t0 = rec.now();
        let more = source
            .next_batch(&mut batch)
            .expect("an in-memory capture streams");
        let t1 = rec.now();
        if !more {
            break;
        }
        rec.push(Layer::RouterSource, span, t0, t1, batch.len());
        frames += batch.len();
        for run in batch
            .events()
            .chunk_by(|a, b| a.time.period_index(period) == b.time.period_index(period))
        {
            if agent.router.current_period() < run[0].time.period_index(period) {
                let t0 = rec.now();
                let before = samples.len();
                agent.router.advance_to(run[0].time, &mut samples);
                let t1 = rec.now();
                rec.push(Layer::RouterClose, span, t0, t1, samples.len() - before);
            }
            let t0 = rec.now();
            for event in run {
                agent.router.observe_event(event);
            }
            let t1 = rec.now();
            rec.push(Layer::RouterTally, span, t0, t1, run.len());
        }
    }
    for sample in samples {
        agent.observe_period(sample, rec, span);
    }
    rec.close(span, frames);
    rec.close(root, frames);
    let router = &agent.router;
    Outcome {
        decisions: agent.decisions(),
        failed: router.sniffer(Direction::Outbound).malformed()
            + router.sniffer(Direction::Inbound).malformed(),
    }
}

/// The fleet's count path, one stub at a time: counts, flood counts, then
/// per period the detector, the gate and the count throttle, as
/// `Fleet::fold_counts` drives them through `SynDogAgent::observe_period`.
fn fleet(fleet: &Fleet, offered: u64, rec: &mut Recorder) -> Outcome {
    let root = rec.open(Layer::Round, NO_PARENT);
    let scenario = fleet.scenario();
    let mut decisions = Decisions::default();
    for (index, spec) in scenario.stubs.iter().enumerate() {
        let span = rec.open(Layer::FleetStub, root);
        let mut rng = SimRng::seed_from_u64(scenario.stub_seed(index));
        let t0 = rec.now();
        let mut counts = spec.site.generate_period_counts(&mut rng);
        let t1 = rec.now();
        rec.push(Layer::TrafficSites, span, t0, t1, counts.len());
        if let Some(flood) = &spec.attack {
            let t0 = rec.now();
            let flood_counts = flood.period_counts(counts.len(), OBSERVATION_PERIOD, &mut rng);
            let t1 = rec.now();
            rec.push(Layer::AttackFlood, span, t0, t1, counts.len());
            for (c, f) in counts.iter_mut().zip(&flood_counts) {
                c.merge(*f);
            }
        }
        let mut detector = scenario.detector.build(scenario.config);
        let mut engine = scenario
            .mitigation
            .map(|policy| MitigationEngine::new(spec.stub(), &scenario.config, policy));
        let mut first_alarm = None;
        for sample in &counts {
            let t0 = rec.now();
            let detection = detector.observe(PeriodSignals {
                syn: sample.syn,
                synack: sample.synack,
                fin: 0,
                rst: 0,
            });
            let t1 = rec.now();
            rec.push(Layer::CoreDetect, span, t0, t1, 1);
            if detection.alarm && first_alarm.is_none() {
                first_alarm = Some(detection.period);
            }
            if let Some(engine) = &mut engine {
                engine.on_detection(&detection, detection.period);
                let t2 = rec.now();
                rec.push(Layer::MitigateGate, span, t1, t2, 1);
                engine.count_throttle(&detection, sample.syn);
                let t3 = rec.now();
                rec.push(Layer::CountThrottle, span, t2, t3, 1);
            }
        }
        decisions.add_stub(&StubOutcome {
            periods: counts.len() as u64,
            first_alarm,
            engaged_at: engine.as_ref().and_then(|e| e.engaged_at()),
            released_at: engine.as_ref().and_then(|e| e.released_at()),
            throttled: engine.as_ref().map_or(0, |e| e.stats().throttled_syns),
            attacked: spec.attack.is_some(),
        });
        rec.close(span, 1);
    }
    rec.close(root, offered as usize);
    Outcome {
        decisions,
        failed: offered - decisions.periods,
    }
}
