//! Differential test of the pcap importer: `Trace::read_pcap` decodes each
//! frame once, through a borrowed view of the reader's block buffer, and must
//! equal the reference chain — `next_packet`, `classify`, `Packet::decode`,
//! `extract_syn` per frame — record for record on every frame the mutator
//! can make.

use std::net::SocketAddrV4;

use proptest::prelude::*;
use syndog_fingerprint::extract_syn;
use syndog_net::pcap::{PcapPacket, PcapReader, PcapWriter};
use syndog_net::tcp::TcpOption;
use syndog_net::{classify, Ipv4Net, MacAddr, Packet, PacketBuilder, SegmentKind, TcpFlags};
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::trace::{Direction, Trace, TraceRecord};

const STUB: &str = "10.1.0.0/16";

/// The reference chain, assembling records exactly as the importer does.
fn reference(capture: &[u8], stub: Ipv4Net) -> Trace {
    let mut reader = PcapReader::new(capture).expect("valid pcap header");
    let mut records = Vec::new();
    let mut max_time = SimDuration::ZERO;
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
        max_time = max_time.max(time.saturating_since(SimTime::ZERO));
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
    Trace::from_records(records, max_time + SimDuration::from_micros(1))
}

/// One of the frame shapes a leaf router carries; `inbound` picks whether
/// the destination lies in the stub.
fn base_frame(shape: u8, inbound: bool, host: u16) -> Vec<u8> {
    let inside: SocketAddrV4 = SocketAddrV4::new([10, 1, (host >> 8) as u8, host as u8].into(), 80);
    let outside: SocketAddrV4 =
        SocketAddrV4::new([192, 0, 2, host as u8].into(), 1025 + host % 60_000);
    let (src, dst) = if inbound {
        (outside, inside)
    } else {
        (inside, outside)
    };
    let builder = match shape % 8 {
        0 => PacketBuilder::tcp_syn(src, dst).tcp_options(vec![
            TcpOption::Mss(1460),
            TcpOption::Nop,
            TcpOption::WindowScale(7),
            TcpOption::SackPermitted,
            TcpOption::Timestamps(1, 0),
        ]),
        1 => PacketBuilder::tcp_syn(src, dst),
        2 => PacketBuilder::tcp_syn_ack(src, dst),
        3 => PacketBuilder::tcp(src, dst, TcpFlags::ACK | TcpFlags::PSH).payload(vec![7u8; 40]),
        4 => PacketBuilder::tcp(src, dst, TcpFlags::FIN | TcpFlags::ACK),
        5 => PacketBuilder::tcp(src, dst, TcpFlags::RST),
        6 => PacketBuilder::non_tcp(*src.ip(), *dst.ip(), syndog_net::ipv4::PROTO_UDP)
            .payload(vec![1u8; 24]),
        _ => PacketBuilder::tcp_syn(src, dst)
            .fragment_offset(3)
            .payload(vec![0u8; 24]),
    };
    builder
        .src_mac(MacAddr::for_host(1, host.into()))
        .seq(u32::from(host))
        .build()
        .expect("builder frames encode")
}

/// Applies one mutation: `kind` picks it, `at` and `value` steer it.
fn mutate(frame: &mut Vec<u8>, kind: u8, at: usize, value: u16) {
    let ihl = frame.get(14).map_or(20, |b| usize::from(b & 0x0f) * 4);
    let tcp = 14 + ihl;
    match kind % 8 {
        // Truncation anywhere, down to an empty frame.
        0 => frame.truncate(at % (frame.len() + 1)),
        // A single bit flip.
        1 if !frame.is_empty() => {
            let at = at % frame.len();
            frame[at] ^= 1 << (value % 8);
        }
        // A lying IHL (and, a quarter of the time, version) nibble.
        2 if frame.len() > 14 => {
            let version = if value & 0x30 == 0 {
                (value >> 8) as u8 & 0x0f
            } else {
                4
            };
            frame[14] = (version << 4) | (value as u8 & 0x0f);
        }
        // A lying TCP data offset.
        3 if frame.len() > tcp + 12 => {
            frame[tcp + 12] = (value as u8 & 0xf0) | (frame[tcp + 12] & 0x0f);
        }
        // A lying IPv4 total length.
        4 if frame.len() > 17 => frame[16..18].copy_from_slice(&value.to_be_bytes()),
        // A lying option-length byte inside the TCP option area.
        5 if frame.len() > tcp + 21 => {
            let end = (tcp + usize::from(frame[tcp + 12] >> 4) * 4).min(frame.len());
            let span = end.saturating_sub(tcp + 21).max(1);
            let at = (tcp + 21 + at % span).min(frame.len() - 1);
            frame[at] = value as u8;
        }
        // A non-IPv4 EtherType over an IPv4-looking body.
        6 if frame.len() > 13 => {
            let ethertype = match value % 4 {
                0 => 0x86dd,
                1 => 0x0806,
                2 => 0x8100,
                _ if value == 0x0800 => 0x0801,
                _ => value,
            };
            frame[12..14].copy_from_slice(&u16::to_be_bytes(ethertype));
        }
        // Trailing bytes past `total_len`.
        7 => frame.extend(std::iter::repeat_n(value as u8, at % 9)),
        _ => {}
    }
}

type FrameSpec = (u8, bool, u16, Vec<(u8, usize, u16)>, u32, u32);

fn arb_frame() -> impl Strategy<Value = FrameSpec> {
    (
        any::<u8>(),
        any::<bool>(),
        any::<u16>(),
        proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u16>()), 0..3),
        0u32..600,
        0u32..1_000_000,
    )
}

fn capture(frames: &[FrameSpec]) -> Vec<u8> {
    let mut file = Vec::new();
    let mut writer = PcapWriter::new(&mut file).expect("in-memory writer");
    for (shape, inbound, host, mutations, ts_sec, ts_micros) in frames {
        let mut data = base_frame(*shape, *inbound, *host);
        for &(kind, at, value) in mutations {
            mutate(&mut data, kind, at, value);
        }
        writer
            .write_packet(&PcapPacket {
                ts_sec: *ts_sec,
                ts_nanos: ts_micros * 1000,
                data,
            })
            .expect("in-memory write");
    }
    writer.flush().expect("in-memory flush");
    file
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

/// Timestamps that go backwards (with ties) make the importer sort: the
/// trace equals `Trace::from_records` of the same records in file order,
/// which keeps ties in file order. The in-order captures above take the
/// path that skips the sort.
#[test]
fn an_out_of_order_capture_imports_sorted() {
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
    assert_ne!(imported.records(), records.as_slice());
    assert_eq!(imported, Trace::from_records(records, duration));
}
