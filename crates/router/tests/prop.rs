//! Property-based tests for the router and agent.

use proptest::prelude::*;
use syndog::{DetectorKind, PeriodCounts, PeriodSignals, SynDogConfig, SynDogDetector};
use syndog_net::SegmentKind;
use syndog_router::{Checkpoint, LeafRouter, PcapSource, SynDogAgent};
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
