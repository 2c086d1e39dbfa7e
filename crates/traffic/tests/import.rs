//! Differential test of the pcap importer: `Trace::read_pcap` decodes each
//! frame once, through a borrowed view of the reader's block buffer, and must
//! equal the reference chain — `next_packet`, `classify`, `Packet::decode`,
//! `extract_syn` per frame — record for record on every frame the mutator
//! can make.

use std::net::SocketAddrV4;

use proptest::prelude::*;
use syndog_fingerprint::{extract_syn, syn_key};
use syndog_net::pcap::PcapReader;
use syndog_net::{classify, Ipv4Net, Packet, PacketView, SegmentKind};
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::{Direction, Trace, TraceRecord};

mod corpus;

use corpus::{arb_frame, base_frame, capture, FrameSpec, STUB};

/// The reference chain, assembling records exactly as the importer does:
/// in arrival order, with the duration ending just past the latest record.
fn reference(capture: &[u8], stub: Ipv4Net) -> Trace {
    let mut reader = PcapReader::new(capture).expect("valid pcap header");
    let mut records = Vec::new();
    let mut end = SimDuration::ZERO;
    while let Some(packet) = reader.next_packet().expect("well-formed records") {
        let Ok(kind) = classify(&packet.data) else {
            continue;
        };
        let Ok(decoded) = Packet::decode(&packet.data) else {
            continue;
        };
        let (src, dst) = match (decoded.src_socket(), decoded.dst_socket()) {
            (Some(s), Some(d)) => (s, d),
            _ => (
                SocketAddrV4::new(decoded.ipv4.src, 0),
                SocketAddrV4::new(decoded.ipv4.dst, 0),
            ),
        };
        let direction = if stub.contains(*dst.ip()) {
            Direction::Inbound
        } else {
            Direction::Outbound
        };
        let time = SimTime::from_micros(
            u64::from(packet.ts_sec) * 1_000_000 + u64::from(packet.ts_nanos) / 1000,
        );
        end = end.max(time.saturating_since(SimTime::ZERO) + SimDuration::from_micros(1));
        let fp = if kind == SegmentKind::Syn {
            extract_syn(&packet.data).map_or(0, |key| key.to_bits())
        } else {
            0
        };
        records.push(TraceRecord {
            time,
            direction,
            kind,
            src,
            dst,
            src_mac: decoded.ethernet.src,
            fp,
        });
    }
    let mut trace = Trace::new(end);
    trace.extend(records);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Record for record, and in duration, the one-pass importer equals
    /// the reference chain on mutated captures.
    #[test]
    fn read_pcap_equals_the_reference_chain_on_mutated_frames(
        frames in proptest::collection::vec(arb_frame(), 0..600),
    ) {
        let stub: Ipv4Net = STUB.parse().unwrap();
        let file = capture(&frames);
        let imported = Trace::read_pcap(file.as_slice(), stub).expect("well-formed capture");
        let expected = reference(&file, stub);
        prop_assert_eq!(imported.records(), expected.records());
        prop_assert_eq!(imported.duration(), expected.duration());
    }
}

/// The corpus reaches TCP past IPv4 options, and a SYN that carries every
/// quirk the key encodes.
#[test]
fn corpus_covers_ip_options_and_every_quirk() {
    let with_options = base_frame(8, false, 7);
    let packet = Packet::decode(&with_options).unwrap();
    assert_eq!(packet.ipv4.header_len(), 28);
    assert_eq!(packet.tcp.unwrap().src_port, 80);
    let view = PacketView::parse(&with_options).unwrap();
    assert_eq!(view.kind(), SegmentKind::Syn);
    assert_eq!(syn_key(&view), extract_syn(&with_options));
    assert!(syn_key(&view).is_some());

    let quirky = base_frame(9, false, 7);
    let key = syn_key(&PacketView::parse(&quirky).unwrap()).unwrap();
    // DF, a nonzero IP ID, ECN, URG, PSH, a nonzero ACK field and a zero
    // sequence number: bits 0, 1, 3, 7, 8, 5 and 4 of the quirk mask.
    assert_eq!(key.quirks, 0x1bb);
    assert_eq!(Some(key), extract_syn(&quirky));
}

/// Wherever the pcap reader's 64 KiB block boundaries fall (a few
/// hundred frames per block here), the records equal the reference
/// chain's.
#[test]
fn batch_boundaries_do_not_change_the_trace() {
    let stub: Ipv4Net = STUB.parse().unwrap();
    for count in [0usize, 1, 255, 256, 257, 1_000, 2_500] {
        let frames: Vec<FrameSpec> = (0..count)
            .map(|i| (i as u8, i % 3 == 0, i as u16, Vec::new(), i as u32, 0))
            .collect();
        let file = capture(&frames);
        let imported = Trace::read_pcap(file.as_slice(), stub).unwrap();
        assert_eq!(
            imported.records(),
            reference(&file, stub).records(),
            "{count} frames"
        );
        assert_eq!(imported.len(), count, "{count} frames");
    }
}

/// A capture cut inside a record body fails in both importers.
#[test]
fn a_cut_capture_is_an_error() {
    let stub: Ipv4Net = STUB.parse().unwrap();
    let frames: Vec<FrameSpec> = (0..300)
        .map(|i| (1, true, i as u16, Vec::new(), i as u32, 0))
        .collect();
    let mut file = capture(&frames);
    file.truncate(file.len() - 5);
    assert!(Trace::read_pcap(file.as_slice(), stub).is_err());
    let mut reader = PcapReader::new(file.as_slice()).unwrap();
    assert!(std::iter::from_fn(|| reader.next_packet().transpose()).any(|packet| packet.is_err()));
}

/// Timestamps that go backwards (with ties) keep their arrival order: the
/// importer does not sort, so every record loop meets a late record where
/// the capture put it. The duration still ends just past the latest
/// record.
#[test]
fn an_out_of_order_capture_imports_in_arrival_order() {
    let stub: Ipv4Net = STUB.parse().unwrap();
    let kinds = [SegmentKind::SynAck, SegmentKind::Ack, SegmentKind::Rst];
    let stamps = [
        5_000_000, 3_000_000, 3_000_000, 9_000_250, 1_000_000, 3_000_000,
    ];
    let records: Vec<TraceRecord> = (0..stamps.len())
        .map(|i| {
            // Outbound from 10.1.0.i, so the importer infers the direction.
            let inside = SocketAddrV4::new([10, 1, 0, i as u8].into(), 80);
            let outside = SocketAddrV4::new([192, 0, 2, 1].into(), 1025);
            let time = SimTime::from_micros(stamps[i]);
            TraceRecord::new(time, Direction::Outbound, kinds[i % 3], inside, outside)
        })
        .collect();
    let duration = SimDuration::from_micros(9_000_251);
    let mut unsorted = Trace::new(duration);
    unsorted.extend(records.iter().copied());
    let mut file = Vec::new();
    unsorted.write_pcap(&mut file).unwrap();
    let imported = Trace::read_pcap(file.as_slice(), stub).unwrap();
    assert_eq!(imported.records(), records.as_slice());
    assert_eq!(imported, unsorted);
}
