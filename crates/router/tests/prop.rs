//! Property-based tests for the router and agent.

use proptest::prelude::*;

use syndog::{DetectorKind, PeriodCounts, PeriodSignals, SynDogConfig, SynDogDetector};
use syndog_net::SegmentKind;
use syndog_router::{Checkpoint, LeafRouter, PcapSource, SynDogAgent};
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::{Direction, Trace, TraceRecord};

fn stub() -> syndog_net::Ipv4Net {
    "10.0.0.0/8".parse().unwrap()
}

fn record(time_s: u64, direction: Direction, kind: SegmentKind) -> TraceRecord {
    TraceRecord::new(
        SimTime::from_secs(time_s),
        direction,
        kind,
        "10.0.0.5:1025".parse().unwrap(),
        "192.0.2.80:80".parse().unwrap(),
    )
}

fn arb_kind() -> impl Strategy<Value = SegmentKind> {
    prop_oneof![
        Just(SegmentKind::Syn),
        Just(SegmentKind::SynAck),
        Just(SegmentKind::Ack),
        Just(SegmentKind::Fin),
        Just(SegmentKind::Rst),
        Just(SegmentKind::NonTcp),
    ]
}

fn arb_direction() -> impl Strategy<Value = Direction> {
    prop_oneof![Just(Direction::Inbound), Just(Direction::Outbound)]
}

/// How a record's time follows the previous one in a period-clock run.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Forward by at most a third of a period: a monotone run.
    After(u64),
    /// Forward by whole periods plus a fraction of one.
    Jump(u64, u64),
    /// Back by up to three periods: a reordered or jittered record.
    Before(u64),
    /// To within two periods of `u64::MAX`, where that is at most 256
    /// periods from zero (otherwise as `After`).
    NearMax(u64),
}

/// One step of a period-clock run.
#[derive(Debug, Clone, Copy)]
enum ClockOp {
    Record(Step, Direction, SegmentKind),
    /// `take_period_sample`: the clock runs ahead of the records.
    Close,
    /// A checkpoint capture, through JSON, then a restore.
    Checkpoint,
}

fn arb_clock_op() -> impl Strategy<Value = ClockOp> {
    (0u8..20, any::<u64>(), 1u64..4, arb_direction(), arb_kind()).prop_map(
        |(pick, x, periods, d, k)| match pick {
            0..=9 => ClockOp::Record(Step::After(x), d, k),
            10..=12 => ClockOp::Record(Step::Jump(periods, x), d, k),
            13..=15 => ClockOp::Record(Step::Before(x), d, k),
            16 => ClockOp::Record(Step::NearMax(x), d, k),
            17 | 18 => ClockOp::Close,
            _ => ClockOp::Checkpoint,
        },
    )
}

/// Periods in µs: tiny ones (records land on boundaries), small ones,
/// the paper's 20 s, and ones so long that `u64::MAX` is at most 256
/// periods away. Few of them divide 2⁶⁴.
fn arb_period_micros() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..8,
        8u64..2_000_000,
        Just(20_000_000u64),
        (1u64..256, 0u64..1_000_000).prop_map(|(k, r)| (u64::MAX / k).saturating_sub(r)),
    ]
}

/// The period clock as the rule states it: a record at `t` belongs to
/// period `⌊t / t0⌋`; reaching a later period closes every one before
/// it, and a record in a period already closed counts in the open one
/// and as late.
#[derive(Debug)]
struct ClockModel {
    t0: u64,
    current: u64,
    late: u64,
    pending: PeriodSignals,
    closed: Vec<PeriodSignals>,
}

impl ClockModel {
    fn record(&mut self, t: u64, direction: Direction, kind: SegmentKind) {
        let target = t / self.t0;
        if target < self.current {
            self.late += 1;
        }
        while self.current < target {
            self.close();
        }
        let count = match (direction, kind) {
            (Direction::Outbound, SegmentKind::Syn) => &mut self.pending.syn,
            (Direction::Inbound, SegmentKind::SynAck) => &mut self.pending.synack,
            (Direction::Outbound, SegmentKind::Fin) => &mut self.pending.fin,
            (Direction::Outbound, SegmentKind::Rst) => &mut self.pending.rst,
            _ => return,
        };
        *count += 1;
    }

    fn close(&mut self) {
        self.closed.push(std::mem::take(&mut self.pending));
        self.current += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The router's period samples equal the trace's own aggregation for
    /// arbitrary record mixes.
    #[test]
    fn router_agrees_with_trace_aggregation(
        events in proptest::collection::vec((0u64..200, arb_direction(), arb_kind()), 0..300),
    ) {
        let records: Vec<TraceRecord> =
            events.iter().map(|&(t, d, k)| record(t, d, k)).collect();
        let trace = Trace::from_records(records, SimDuration::from_secs(200));
        let mut router = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let by_router = router.run_trace(&trace);
        let by_trace = trace.period_counts(SimDuration::from_secs(20));
        let handshake: Vec<(u64, u64)> = by_router.iter().map(|s| (s.syn, s.synack)).collect();
        let expected: Vec<(u64, u64)> = by_trace.iter().map(|s| (s.syn, s.synack)).collect();
        prop_assert_eq!(handshake, expected);
        // The close-side signals come straight from the outbound sniffer:
        // re-derive them from the raw events.
        let mut fin = vec![0u64; by_router.len()];
        let mut rst = vec![0u64; by_router.len()];
        for &(t, d, k) in &events {
            let p = (t / 20) as usize;
            if d == Direction::Outbound && p < fin.len() {
                match k {
                    SegmentKind::Fin => fin[p] += 1,
                    SegmentKind::Rst => rst[p] += 1,
                    _ => {}
                }
            }
        }
        for (p, s) in by_router.iter().enumerate() {
            prop_assert_eq!(s.fin, fin[p]);
            prop_assert_eq!(s.rst, rst[p]);
        }
    }

    /// Counting is linear: a merged trace yields the sum of each trace's
    /// counts per period.
    #[test]
    fn counting_is_linear_under_merge(
        a in proptest::collection::vec((0u64..100, arb_direction(), arb_kind()), 0..100),
        b in proptest::collection::vec((0u64..100, arb_direction(), arb_kind()), 0..100),
    ) {
        let ta = Trace::from_records(
            a.iter().map(|&(t, d, k)| record(t, d, k)).collect(),
            SimDuration::from_secs(100),
        );
        let tb = Trace::from_records(
            b.iter().map(|&(t, d, k)| record(t, d, k)).collect(),
            SimDuration::from_secs(100),
        );
        let mut merged = ta.clone();
        merged.merge(&tb);
        let ca = ta.period_counts(SimDuration::from_secs(20));
        let cb = tb.period_counts(SimDuration::from_secs(20));
        let cm = merged.period_counts(SimDuration::from_secs(20));
        for ((sa, sb), sm) in ca.iter().zip(&cb).zip(&cm) {
            prop_assert_eq!(sa.syn + sb.syn, sm.syn);
            prop_assert_eq!(sa.synack + sb.synack, sm.synack);
        }
    }

    /// Agent batch run equals feeding the detector the aggregated counts
    /// directly — the router adds binning, never arithmetic.
    #[test]
    fn agent_equals_detector_on_aggregates(
        events in proptest::collection::vec((0u64..200, arb_direction(), arb_kind()), 0..200),
    ) {
        let records: Vec<TraceRecord> =
            events.iter().map(|&(t, d, k)| record(t, d, k)).collect();
        let trace = Trace::from_records(records, SimDuration::from_secs(200));
        let mut agent = SynDogAgent::new(stub(), SynDogConfig::paper_default());
        let via_agent = agent.run_trace(&trace);
        let mut detector = SynDogDetector::new(SynDogConfig::paper_default());
        for (sample, agent_detection) in trace
            .period_counts(SimDuration::from_secs(20))
            .iter()
            .zip(via_agent.iter())
        {
            let direct = detector.observe(PeriodCounts { syn: sample.syn, synack: sample.synack });
            prop_assert_eq!(&direct, agent_detection);
        }
    }

    /// The record loop and the frame-source loop close the same periods:
    /// for arbitrary records written as a pcap, `run_source(PcapSource)`
    /// squared off to the span `read_pcap` infers equals `run_trace` over
    /// the imported trace.
    #[test]
    fn run_trace_equals_run_source_over_a_pcap_source(
        events in proptest::collection::vec((0u64..260, arb_direction(), arb_kind()), 0..300),
    ) {
        // The pcap carries no direction: address each record the way it
        // travels, so the reader's destination rule recovers it.
        let records: Vec<TraceRecord> = events
            .iter()
            .map(|&(t, d, k)| {
                let r = record(t, d, k);
                match d {
                    Direction::Outbound => r,
                    Direction::Inbound => TraceRecord { src: r.dst, dst: r.src, ..r },
                }
            })
            .collect();
        let mut file = Vec::new();
        Trace::from_records(records, SimDuration::from_secs(260))
            .write_pcap(&mut file)
            .unwrap();
        let imported = Trace::read_pcap(file.as_slice(), stub()).unwrap();
        let mut by_records = SynDogAgent::new(stub(), SynDogConfig::paper_default());
        let mut by_source = SynDogAgent::new(stub(), SynDogConfig::paper_default());
        by_records.run_trace(&imported);
        by_source
            .run_source(PcapSource::new(file.as_slice(), stub()).unwrap())
            .unwrap();
        let period = by_source.router().period().as_micros();
        by_source.close_periods_to(imported.duration().as_micros().div_ceil(period));
        prop_assert_eq!(by_records.detections(), by_source.detections());
        prop_assert_eq!(
            by_records.router().current_period(),
            by_source.router().current_period()
        );
    }

    /// The period clock places every record as `⌊t / t0⌋` does, for time
    /// streams with monotone runs, late records, multi-period jumps,
    /// times near `u64::MAX` and periods that do not divide 2⁶⁴, across
    /// checkpoint round-trips: the router's closed signals and `late()`
    /// (through `advance_to`), and the agent's detections (through
    /// `filter_record`), equal the reference's.
    #[test]
    fn the_period_clock_equals_the_division_rule(
        t0 in arb_period_micros(),
        ops in proptest::collection::vec(arb_clock_op(), 0..300),
    ) {
        let period = SimDuration::from_micros(t0);
        let mut router = LeafRouter::new(stub(), period);
        let mut start = SynDogAgent::new(stub(), SynDogConfig::paper_default()).checkpoint();
        start.period_micros = t0;
        let mut agent = SynDogAgent::restore(&start).unwrap();
        let detector = DetectorKind::Syndog.build(SynDogConfig::paper_default());
        let mut model = ClockModel {
            t0,
            current: 0,
            late: 0,
            pending: PeriodSignals::default(),
            closed: Vec::new(),
        };
        let (mut closed, mut router_late, mut agent_late) = (Vec::new(), 0, 0);
        let mut t = 0u64;
        for op in ops {
            match op {
                ClockOp::Record(step, direction, kind) => {
                    t = match step {
                        Step::After(x) => t.saturating_add(x % (t0 / 3 + 1)),
                        Step::Jump(k, x) => {
                            t.saturating_add(t0.saturating_mul(k)).saturating_add(x % t0)
                        }
                        Step::Before(x) => t.saturating_sub(x % t0.saturating_mul(3)),
                        Step::NearMax(x) if u64::MAX / t0 <= 256 => {
                            u64::MAX - x % t0.saturating_mul(2)
                        }
                        Step::NearMax(x) => t.saturating_add(x % (t0 / 3 + 1)),
                    };
                    let record = TraceRecord::new(
                        SimTime::from_micros(t),
                        direction,
                        kind,
                        "10.0.0.5:1025".parse().unwrap(),
                        "192.0.2.80:80".parse().unwrap(),
                    );
                    model.record(t, direction, kind);
                    router.advance_to(record.time, &mut closed);
                    router.observe_record(&record);
                    agent.filter_record(&record);
                }
                ClockOp::Close => {
                    model.close();
                    closed.push(router.take_period_sample());
                    agent.close_periods_to(agent.router().current_period() + 1);
                }
                ClockOp::Checkpoint => {
                    router_late += router.late();
                    agent_late += agent.router().late();
                    let json = Checkpoint::capture(&router, 0, &detector, &[], &[], None).to_json();
                    router = SynDogAgent::restore(&Checkpoint::from_json(&json).unwrap())
                        .unwrap()
                        .router()
                        .clone();
                    let json = agent.checkpoint().to_json();
                    agent = SynDogAgent::restore(&Checkpoint::from_json(&json).unwrap()).unwrap();
                }
            }
        }
        prop_assert_eq!(&closed, &model.closed);
        prop_assert_eq!(router_late + router.late(), model.late);
        prop_assert_eq!(router.current_period(), model.current);
        prop_assert_eq!(agent_late + agent.router().late(), model.late);
        prop_assert_eq!(agent.router().current_period(), model.current);
        let mut expected = SynDogAgent::new(stub(), SynDogConfig::paper_default());
        for sample in &model.closed {
            expected.observe_period(*sample);
        }
        prop_assert_eq!(agent.detections(), expected.detections());
    }

    /// Every detection strategy's learned state survives a checkpoint
    /// round-trip exactly, cut at an arbitrary period of a quiet-then-flood
    /// run — including cuts that land mid-attack, with the CUSUM climbing
    /// or the alarm already latched.
    #[test]
    fn every_strategy_checkpoints_exactly_at_any_cut_point(
        kind_index in 0usize..DetectorKind::ALL.len(),
        cut in 1usize..30,
        base in 100u64..2000,
        extra in 0u64..8000,
        attack_start in 2usize..25,
    ) {
        let kind = DetectorKind::ALL[kind_index];
        let mut agent =
            SynDogAgent::with_detector(stub(), kind.build(SynDogConfig::paper_default()));
        for p in 0..cut {
            let syn = if p >= attack_start { base + extra } else { base };
            agent.observe_period(PeriodSignals {
                syn,
                synack: base - base / 20,
                fin: base * 9 / 10,
                rst: base / 20,
            });
        }
        let json = agent.checkpoint().to_json();
        let parsed = Checkpoint::from_json(&json).unwrap();
        prop_assert_eq!(parsed.detector.kind(), kind);
        prop_assert_eq!(&parsed.detector, agent.detector());
        prop_assert_eq!(parsed.detections.len(), cut);
        // Re-serializing the parsed checkpoint is byte-stable.
        prop_assert_eq!(parsed.to_json(), json);
    }
}
