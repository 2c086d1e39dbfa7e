//! The mutation corpus: generated leaf-router frames, mutated the ways a
//! hostile or damaged capture can be, written as a pcap. Shared by the
//! importer's differential test and the one-period-rule test.

use std::net::SocketAddrV4;

use proptest::prelude::*;
use syndog_net::pcap::{PcapFrame, PcapWriter};
use syndog_net::TcpOption;
use syndog_net::{MacAddr, PacketBuilder, TcpFlags};

/// The stub prefix the corpus addresses inbound frames into.
pub const STUB: &str = "10.1.0.0/16";

/// One of the frame shapes a leaf router carries; `inbound` picks whether
/// the destination lies in the stub.
pub fn base_frame(shape: u8, inbound: bool, host: u16) -> Vec<u8> {
    let inside: SocketAddrV4 = SocketAddrV4::new([10, 1, (host >> 8) as u8, host as u8].into(), 80);
    let outside: SocketAddrV4 =
        SocketAddrV4::new([192, 0, 2, host as u8].into(), 1025 + host % 60_000);
    let (src, dst) = if inbound {
        (outside, inside)
    } else {
        (inside, outside)
    };
    let shape = shape % 10;
    let builder = match shape {
        0 => PacketBuilder::tcp(src, dst, TcpFlags::SYN).tcp_options([
            TcpOption::Mss(1460),
            TcpOption::Nop,
            TcpOption::WindowScale(7),
            TcpOption::SackPermitted,
            TcpOption::Timestamps(1, 0),
        ]),
        1 | 8 => PacketBuilder::tcp(src, dst, TcpFlags::SYN),
        2 => PacketBuilder::tcp(src, dst, TcpFlags::SYN | TcpFlags::ACK),
        3 => PacketBuilder::tcp(src, dst, TcpFlags::ACK | TcpFlags::PSH).payload(vec![7u8; 40]),
        4 => PacketBuilder::tcp(src, dst, TcpFlags::FIN | TcpFlags::ACK),
        5 => PacketBuilder::tcp(src, dst, TcpFlags::RST),
        6 => PacketBuilder::non_tcp(*src.ip(), *dst.ip(), syndog_net::PROTO_UDP)
            .payload(vec![1u8; 24]),
        7 => PacketBuilder::tcp(src, dst, TcpFlags::SYN)
            .fragment_offset(3)
            .payload(vec![0u8; 24]),
        // Every quirk the fingerprint encodes: DF with a nonzero ID, ECN,
        // URG and PSH on the SYN, a nonzero ACK field, a nonzero urgent
        // pointer and (below) sequence number 0.
        _ => PacketBuilder::tcp(
            src,
            dst,
            TcpFlags::SYN | TcpFlags::URG | TcpFlags::PSH | TcpFlags::ECE | TcpFlags::CWR,
        )
        .dont_fragment(true)
        .identification(0x4d2)
        .ack(0x0102_0304)
        .urgent(9),
    };
    let seq = if shape == 9 { 0 } else { u32::from(host) };
    let mut frame = builder
        .src_mac(MacAddr::for_host(1, host.into()))
        .seq(seq)
        .build()
        .expect("builder frames encode");
    if shape == 8 {
        splice_ip_options(
            &mut frame,
            &[0x94, 0x04, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00],
        );
    }
    frame
}

/// Inserts IPv4 options after a 20-byte IPv4 header, fixing up the IHL,
/// `total_len` and the header checksum, so the TCP header starts past them.
fn splice_ip_options(frame: &mut Vec<u8>, options: &[u8]) {
    assert_eq!(options.len() % 4, 0, "options fill whole words");
    frame.splice(34..34, options.iter().copied());
    let header_len = 20 + options.len();
    frame[14] = 0x40 | (header_len / 4) as u8;
    let total_len = u16::from_be_bytes([frame[16], frame[17]]) + options.len() as u16;
    frame[16..18].copy_from_slice(&total_len.to_be_bytes());
    frame[24..26].copy_from_slice(&[0, 0]);
    let checksum = internet_checksum(&frame[14..14 + header_len]);
    frame[24..26].copy_from_slice(&checksum.to_be_bytes());
}

/// Applies one mutation: `kind` picks it, `at` and `value` steer it.
pub fn mutate(frame: &mut Vec<u8>, kind: u8, at: usize, value: u16) {
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

/// One frame: shape, inbound, host, mutations, and its timestamp
/// (seconds, microseconds).
pub type FrameSpec = (u8, bool, u16, Vec<(u8, usize, u16)>, u32, u32);

/// Any frame the corpus can make.
pub fn arb_frame() -> impl Strategy<Value = FrameSpec> {
    (
        any::<u8>(),
        any::<bool>(),
        any::<u16>(),
        proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u16>()), 0..3),
        0u32..600,
        0u32..1_000_000,
    )
}

/// The frames as one pcap capture, in the order given.
pub fn capture(frames: &[FrameSpec]) -> Vec<u8> {
    let mut file = Vec::new();
    let mut writer = PcapWriter::new(&mut file).expect("in-memory writer");
    for (shape, inbound, host, mutations, ts_sec, ts_micros) in frames {
        let mut data = base_frame(*shape, *inbound, *host);
        for &(kind, at, value) in mutations {
            mutate(&mut data, kind, at, value);
        }
        writer
            .write_frame(&PcapFrame {
                ts_sec: *ts_sec,
                ts_nanos: ts_micros * 1000,
                data: &data,
            })
            .expect("in-memory write");
    }
    writer.flush().expect("in-memory flush");
    file
}

/// The RFC 1071 Internet checksum of `data` (an even-length header).
fn internet_checksum(data: &[u8]) -> u16 {
    let sum = data
        .chunks(2)
        .map(|pair| u32::from(u16::from_be_bytes([pair[0], pair[1]])))
        .sum::<u32>();
    let folded = (sum & 0xffff) + (sum >> 16);
    !((folded & 0xffff) + (folded >> 16)) as u16
}
