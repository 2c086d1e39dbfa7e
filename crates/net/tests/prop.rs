//! Property-based tests for the wire-format substrate.

use proptest::prelude::*;
use std::io::{Cursor, Read};
use std::net::{Ipv4Addr, SocketAddrV4};

use syndog_net::classify;
use syndog_net::pcap::{PcapFrame, PcapReader, PcapWriter};
use syndog_net::{Ipv4Net, MacAddr};
use syndog_net::{Packet, PacketBuilder, TcpFlags};

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_socket() -> impl Strategy<Value = SocketAddrV4> {
    (arb_ipv4(), any::<u16>()).prop_map(|(ip, port)| SocketAddrV4::new(ip, port))
}

proptest! {
    /// Any built TCP packet decodes back to the same endpoints, flags,
    /// sequence numbers and payload.
    #[test]
    fn packet_build_decode_roundtrip(
        src in arb_socket(),
        dst in arb_socket(),
        bits in 0u8..64,
        seq in any::<u32>(),
        ack in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let flags = TcpFlags::from_bits_truncate(bits);
        let bytes = PacketBuilder::tcp(src, dst, flags)
            .seq(seq)
            .ack(ack)
            .payload(payload.clone())
            .build()
            .unwrap();
        let packet = Packet::decode(&bytes).unwrap();
        let tcp = packet.tcp.as_ref().unwrap();
        prop_assert_eq!(packet.ipv4.src, *src.ip());
        prop_assert_eq!(packet.ipv4.dst, *dst.ip());
        prop_assert_eq!(tcp.src_port, src.port());
        prop_assert_eq!(tcp.dst_port, dst.port());
        prop_assert_eq!(tcp.flags, flags);
        prop_assert_eq!(tcp.seq, seq);
        prop_assert_eq!(tcp.ack, ack);
        prop_assert_eq!(&packet.payload, &payload);
    }

    /// pcap files round-trip arbitrary packet sequences.
    #[test]
    fn pcap_roundtrip(
        records in proptest::collection::vec(
            (any::<u32>(), 0u32..1_000_000, proptest::collection::vec(any::<u8>(), 0..512)),
            0..20,
        ),
    ) {
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file).unwrap();
        for (sec, micros, data) in &records {
            writer
                .write_frame(&PcapFrame { ts_sec: *sec, ts_nanos: micros * 1000, data })
                .unwrap();
        }
        writer.flush().unwrap();
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        for (sec, micros, data) in &records {
            let packet = reader.next_packet().unwrap().unwrap();
            prop_assert_eq!(packet.ts_sec, *sec);
            prop_assert_eq!(packet.ts_nanos, micros * 1000);
            prop_assert_eq!(&packet.data, data);
        }
        prop_assert!(reader.next_packet().unwrap().is_none());
    }

    /// MAC addresses round-trip through their display form.
    #[test]
    fn mac_display_parse_roundtrip(octets in any::<[u8; 6]>()) {
        let mac = MacAddr::new(octets);
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        prop_assert_eq!(mac, parsed);
    }

    /// A prefix contains exactly the addresses that share its masked bits.
    #[test]
    fn prefix_membership_matches_mask(base in any::<u32>(), len in 0u8..=32, probe in any::<u32>()) {
        let net = Ipv4Net::new(Ipv4Addr::from(base), len);
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - u32::from(len)) };
        let expected = probe & mask == base & mask;
        prop_assert_eq!(net.contains(Ipv4Addr::from(probe)), expected);
    }

    /// Classification never panics on arbitrary bytes — the sniffer sits on
    /// a live interface and must tolerate garbage.
    #[test]
    fn classify_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = classify(&bytes);
    }

    /// Packet decode never panics on arbitrary bytes.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Packet::decode(&bytes);
    }
}

/// Assembles a pcap file in either byte order and either timestamp
/// resolution, as a foreign capture tool would write it. Each record is
/// its stored timestamp fields, body length and body pattern seed.
fn assemble(big_endian: bool, nanosecond: bool, records: &[(u32, u32, usize, u8)]) -> Vec<u8> {
    let word = |value: u32| {
        if big_endian {
            value.to_be_bytes()
        } else {
            value.to_le_bytes()
        }
    };
    let magic = if nanosecond { 0xa1b2_3c4d } else { 0xa1b2_c3d4 };
    // Version 2.4 (read back as two u16s), zone, sigfigs, snaplen, link.
    let head = [magic, 0x0004_0002, 0, 0, 1 << 18, 1];
    let mut file: Vec<u8> = head.into_iter().flat_map(word).collect();
    for &(ts_sec, ts_frac, len, seed) in records {
        file.extend(
            [ts_sec, ts_frac, len as u32, len as u32]
                .into_iter()
                .flat_map(word),
        );
        file.extend((0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)));
    }
    file
}

/// A [`Read`] that hands out between 1 and `max` bytes per call,
/// in a pattern fixed by `state`.
struct Chunked<'a> {
    bytes: &'a [u8],
    max: usize,
    state: u64,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let n = (1 + (self.state >> 33) as usize % self.max).min(buf.len());
        self.bytes.read(&mut buf[..n])
    }
}

/// Frames as `(ts_sec, ts_nanos, data)`, then the error that ended them.
type Lent = (Vec<(u32, u32, Vec<u8>)>, Option<String>);

/// Everything `next_frame` yields until the end or the first error, the
/// error rendered for comparison.
fn lend_all<R: Read>(reader: R) -> Lent {
    let mut reader = PcapReader::new(reader).unwrap();
    let mut frames = Vec::new();
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) => frames.push((frame.ts_sec, frame.ts_nanos, frame.data.to_vec())),
            Ok(None) => return (frames, None),
            Err(err) => return (frames, Some(format!("{err:?}"))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// However the underlying reader splits the file — one byte at a
    /// time, up to `max` at a time, or all at once — the block-buffered
    /// reader lends exactly the records written, in both byte orders and
    /// both resolutions, with bodies that fit, straddle or exceed a
    /// block. A file cut anywhere ends cleanly inside a record header and
    /// otherwise reports the body bytes present.
    #[test]
    fn next_frame_is_independent_of_read_chunking(
        big_endian in any::<bool>(),
        nanosecond in any::<bool>(),
        records in proptest::collection::vec(
            (
                any::<u32>(),
                any::<u32>(),
                prop_oneof![0usize..128, 65_400usize..65_600, 0usize..150 * 1024],
                any::<u8>(),
            ),
            0..6,
        ),
        cut in (any::<bool>(), any::<usize>()),
        max in 2usize..70_000,
        state in any::<u64>(),
    ) {
        let mut file = assemble(big_endian, nanosecond, &records);
        if cut.0 {
            file.truncate(24 + cut.1 % (file.len() - 24 + 1));
        }
        let end = file.len();
        let mut expected = Vec::new();
        let mut error = None;
        let mut at = 24;
        for &(ts_sec, ts_frac, len, _) in &records {
            if at + 16 > end {
                break;
            }
            if at + 16 + len > end {
                let err = syndog_net::NetError::Truncated {
                    layer: "pcap record",
                    needed: len,
                    available: end - at - 16,
                };
                error = Some(format!("{err:?}"));
                break;
            }
            let ts_nanos = if nanosecond { ts_frac } else { ts_frac.saturating_mul(1000) };
            expected.push((ts_sec, ts_nanos, file[at + 16..at + 16 + len].to_vec()));
            at += 16 + len;
        }
        for max in [1, max, usize::MAX] {
            let (frames, err) = lend_all(Chunked { bytes: &file, max, state });
            prop_assert!(frames == expected, "frames differ at max {}", max);
            prop_assert_eq!(&err, &error);
        }
    }
}
