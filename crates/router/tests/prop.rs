//! Property-based tests for the router and agent.

use proptest::prelude::*;
use std::collections::HashMap;

use syndog::{DetectorKind, PeriodCounts, PeriodSignals, SynDogConfig, SynDogDetector};
use syndog_net::SegmentKind;
use syndog_router::{Checkpoint, FrameEvent, LeafRouter, PcapSource, SynDogAgent};
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::trace::{Direction, Trace, TraceRecord};

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

/// One step of a sniffer tally run.
#[derive(Debug, Clone, Copy)]
enum TallyOp {
    /// A classified record on an interface.
    Record(Direction, SegmentKind),
    /// A frame the classifier rejected.
    Malformed(Direction),
    /// `take_period_sample`.
    Close,
    /// A checkpoint capture, through JSON, then a restore.
    Checkpoint,
}

fn arb_tally_op() -> impl Strategy<Value = TallyOp> {
    // Mostly records, with a close or a checkpoint every dozen or so.
    (0u8..16, arb_direction(), 0..SegmentKind::ALL.len()).prop_map(|(pick, d, k)| match pick {
        0..=12 => TallyOp::Record(d, SegmentKind::ALL[k]),
        13 => TallyOp::Malformed(d),
        14 => TallyOp::Close,
        _ => TallyOp::Checkpoint,
    })
}

/// The sniffers' counts, tallied the obvious way: one named entry per
/// interface and kind.
#[derive(Debug, Default)]
struct NaiveTally {
    pending: HashMap<(Direction, SegmentKind), u64>,
    lifetime: HashMap<(Direction, SegmentKind), u64>,
    frames_seen: HashMap<Direction, u64>,
    malformed: HashMap<Direction, u64>,
}

impl NaiveTally {
    fn pending(&self, direction: Direction, kind: SegmentKind) -> u64 {
        self.pending.get(&(direction, kind)).copied().unwrap_or(0)
    }

    fn close(&mut self) -> PeriodSignals {
        let signals = PeriodSignals {
            syn: self.pending(Direction::Outbound, SegmentKind::Syn),
            synack: self.pending(Direction::Inbound, SegmentKind::SynAck),
            fin: self.pending(Direction::Outbound, SegmentKind::Fin),
            rst: self.pending(Direction::Outbound, SegmentKind::Rst),
        };
        self.pending.clear();
        signals
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

    /// The per-kind sniffer arrays count exactly what a naive tally of
    /// named counters does: every closed period's signals, every pending
    /// and lifetime per-kind count, `frames_seen` and `malformed`, with
    /// period closes and checkpoint round-trips at arbitrary points.
    #[test]
    fn sniffer_counts_equal_a_naive_tally(
        ops in proptest::collection::vec(arb_tally_op(), 0..400),
    ) {
        let mut router = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let detector = DetectorKind::Syndog.build(SynDogConfig::paper_default());
        let mut naive = NaiveTally::default();
        for op in ops {
            match op {
                TallyOp::Record(direction, kind) => {
                    router.observe_record(&record(0, direction, kind));
                    *naive.pending.entry((direction, kind)).or_default() += 1;
                    *naive.lifetime.entry((direction, kind)).or_default() += 1;
                    *naive.frames_seen.entry(direction).or_default() += 1;
                }
                TallyOp::Malformed(direction) => {
                    router.observe_event(&FrameEvent {
                        time: SimTime::ZERO,
                        direction,
                        kind: None,
                    });
                    *naive.malformed.entry(direction).or_default() += 1;
                    *naive.frames_seen.entry(direction).or_default() += 1;
                }
                TallyOp::Close => prop_assert_eq!(router.take_period_sample(), naive.close()),
                TallyOp::Checkpoint => {
                    let json = Checkpoint::capture(&router, 0, &detector, &[], &[], None).to_json();
                    let restored =
                        SynDogAgent::restore(&Checkpoint::from_json(&json).unwrap()).unwrap();
                    router = restored.router().clone();
                }
            }
            for direction in [Direction::Inbound, Direction::Outbound] {
                let sniffer = router.sniffer(direction);
                for kind in SegmentKind::ALL {
                    let lifetime = naive.lifetime.get(&(direction, kind)).copied().unwrap_or(0);
                    prop_assert_eq!(sniffer.kind_count(kind), lifetime);
                }
                prop_assert_eq!(sniffer.syn_count(), naive.pending(direction, SegmentKind::Syn));
                prop_assert_eq!(
                    sniffer.synack_count(),
                    naive.pending(direction, SegmentKind::SynAck)
                );
                prop_assert_eq!(sniffer.fin_count(), naive.pending(direction, SegmentKind::Fin));
                prop_assert_eq!(sniffer.rst_count(), naive.pending(direction, SegmentKind::Rst));
                let count = |tally: &HashMap<Direction, u64>| tally.get(&direction).copied();
                prop_assert_eq!(sniffer.frames_seen(), count(&naive.frames_seen).unwrap_or(0));
                prop_assert_eq!(sniffer.malformed(), count(&naive.malformed).unwrap_or(0));
            }
        }
        prop_assert_eq!(router.take_period_sample(), naive.close());
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
