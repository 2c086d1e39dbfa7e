//! Property-based tests for the wire-format substrate.

use proptest::prelude::*;
use std::io::{Cursor, Read};
use std::net::{Ipv4Addr, SocketAddrV4};

use syndog_net::classify::{classify, kind_of};
use syndog_net::ethernet::EthernetHeader;
use syndog_net::ipv4::{internet_checksum, Ipv4Header, PROTO_TCP};
use syndog_net::packet::{Packet, PacketBuilder, PacketView};
use syndog_net::pcap::{PcapFrame, PcapReader, PcapWriter};
use syndog_net::tcp::{TcpFlags, TcpHeader};
use syndog_net::{Ipv4Net, MacAddr};

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_socket() -> impl Strategy<Value = SocketAddrV4> {
    (arb_ipv4(), any::<u16>()).prop_map(|(ip, port)| SocketAddrV4::new(ip, port))
}

/// A hand-assembled IPv4/TCP frame with an arbitrary IHL (including the
/// odd option-bearing lengths `PacketBuilder` never emits) and an
/// arbitrary version nibble.
fn raw_ihl_frame(version: u8, ihl_words: u8, flag_bits: u8, tail: usize) -> Vec<u8> {
    let ihl = usize::from(ihl_words) * 4;
    let mut frame = vec![0u8; 14 + ihl + 14 + tail];
    frame[12] = 0x08;
    frame[13] = 0x00;
    frame[14] = (version << 4) | ihl_words;
    frame[14 + 9] = 6; // protocol: TCP
    let flags_offset = 14 + ihl + 13;
    if flags_offset < frame.len() {
        frame[flags_offset] = flag_bits;
    }
    frame
}

/// An arbitrary frame drawn from every shape the sniffer can meet on the
/// wire: TCP with any of the 64 flag combinations, later IP fragments,
/// non-TCP protocols, truncated frames, foreign ethertypes, odd IHLs,
/// raw garbage.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Hand-built IPv4/TCP with arbitrary IHL nibble (0..=15: bad,
        // minimal, and option-bearing) and version nibble 4 or not.
        (prop_oneof![Just(4u8), 0u8..16], 0u8..16, 0u8..64, 0usize..8).prop_map(
            |(version, ihl_words, bits, tail)| raw_ihl_frame(version, ihl_words, bits, tail)
        ),
        // Well-formed TCP, all 64 flag combinations.
        (arb_socket(), arb_socket(), 0u8..64).prop_map(|(src, dst, bits)| {
            PacketBuilder::tcp(src, dst, TcpFlags::from_bits_truncate(bits))
                .build()
                .unwrap()
        }),
        // A later fragment: protocol 6 but no TCP header to read.
        (arb_socket(), arb_socket(), 1u16..2048).prop_map(|(src, dst, offset)| {
            PacketBuilder::tcp(src, dst, TcpFlags::SYN)
                .fragment_offset(offset)
                .payload(vec![0u8; 32])
                .build()
                .unwrap()
        }),
        // Non-TCP IPv4 (UDP, ICMP, anything).
        (arb_ipv4(), arb_ipv4(), any::<u8>()).prop_map(|(src, dst, proto)| {
            PacketBuilder::non_tcp(src, dst, proto).build().unwrap()
        }),
        // A valid frame truncated mid-header.
        (arb_socket(), arb_socket(), 0usize..54).prop_map(|(src, dst, keep)| {
            let frame = PacketBuilder::tcp(src, dst, TcpFlags::SYN).build().unwrap();
            frame[..keep.min(frame.len())].to_vec()
        }),
        // A non-IPv4 ethertype (ARP, IPv6, VLAN...) over a TCP body.
        (arb_socket(), arb_socket(), any::<u16>()).prop_map(|(src, dst, ethertype)| {
            let mut frame = PacketBuilder::tcp(src, dst, TcpFlags::SYN).build().unwrap();
            frame[12] = (ethertype >> 8) as u8;
            frame[13] = ethertype as u8;
            frame
        }),
        // Raw garbage bytes.
        proptest::collection::vec(any::<u8>(), 0..64),
    ]
}

proptest! {
    /// `Packet::decode` — the borrowed view plus an owned copy — accepts
    /// and rejects exactly what the layer decoders composed by hand do
    /// (IPv4 whatever the EtherType, TCP only for unfragmented protocol
    /// 6), with the same error, and the view's accessors agree with the
    /// owned packet; frames are arbitrary shapes with one byte corrupted.
    #[test]
    fn packet_view_equals_layer_by_layer_decode(
        frame in arb_frame(),
        at in any::<usize>(),
        value in any::<u8>(),
    ) {
        let mut frame = frame;
        if !frame.is_empty() {
            let at = at % frame.len();
            frame[at] = value;
        }
        let layered = (|| {
            let (ethernet, rest) = EthernetHeader::decode(&frame)?;
            let (ipv4, ip_payload) = Ipv4Header::decode(rest, false)?;
            let (tcp, payload) = if ipv4.protocol == PROTO_TCP && ipv4.fragment_offset == 0 {
                let (tcp, payload) = TcpHeader::decode(ip_payload, None)?;
                (Some(tcp), payload)
            } else {
                (None, ip_payload)
            };
            Ok::<_, syndog_net::NetError>(Packet { ethernet, ipv4, tcp, payload: payload.to_vec() })
        })();
        let decoded = Packet::decode(&frame);
        prop_assert_eq!(format!("{decoded:?}"), format!("{layered:?}"));
        if let Ok(packet) = decoded {
            let view = PacketView::parse(&frame).unwrap();
            prop_assert_eq!(view.ethernet, packet.ethernet);
            prop_assert_eq!(view.src(), packet.ipv4.src);
            prop_assert_eq!(view.dst(), packet.ipv4.dst);
            prop_assert_eq!(view.src_socket(), packet.src_socket());
            prop_assert_eq!(view.dst_socket(), packet.dst_socket());
        }
    }

    /// Every frame the view accepts, `classify` accepts too, and the view's
    /// kind is the classifier's; frames as above.
    #[test]
    fn view_kind_equals_classify(
        frame in arb_frame(),
        at in any::<usize>(),
        value in any::<u8>(),
    ) {
        let mut frame = frame;
        if !frame.is_empty() {
            let at = at % frame.len();
            frame[at] = value;
        }
        if let Ok(view) = PacketView::parse(&frame) {
            prop_assert_eq!(classify(&frame).ok(), Some(view.kind()));
        }
    }

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

    /// The fast-path classifier agrees with the full decoder on every
    /// generated packet.
    #[test]
    fn classifier_agrees_with_full_decode(
        src in arb_socket(),
        dst in arb_socket(),
        bits in 0u8..64,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let flags = TcpFlags::from_bits_truncate(bits);
        let bytes = PacketBuilder::tcp(src, dst, flags)
            .payload(payload)
            .build()
            .unwrap();
        let fast = classify(&bytes).unwrap();
        let full = Packet::decode(&bytes).unwrap();
        prop_assert_eq!(fast, kind_of(full.tcp.unwrap().flags));
    }

    /// Encoded IPv4 headers always checksum to zero, and any single-bit
    /// corruption of the header is detected.
    #[test]
    fn ipv4_checksum_detects_single_bit_flips(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        payload_len in 0usize..64,
        flip_bit in 0usize..(20 * 8),
    ) {
        let hdr = Ipv4Header::for_tcp(src, dst, payload_len);
        let mut buf = Vec::new();
        hdr.encode(&mut buf).unwrap();
        prop_assert_eq!(internet_checksum(&buf), 0);
        let byte = flip_bit / 8;
        buf[byte] ^= 1 << (flip_bit % 8);
        // Flipping a bit may make it a non-v4 version or bad IHL (decode
        // error) or fail the checksum; it must never verify cleanly...
        // unless the flip produced the identical header (impossible for xor).
        prop_assert!(Ipv4Header::decode(&buf, true).is_err());
    }

    /// TCP pseudo-header checksums verify after encode and detect payload
    /// corruption.
    #[test]
    fn tcp_checksum_roundtrip_and_corruption(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        flip in 0usize..8,
    ) {
        let hdr = TcpHeader::syn(1025, 80, seq);
        let mut buf = Vec::new();
        hdr.encode(src, dst, &payload, &mut buf).unwrap();
        prop_assert!(TcpHeader::decode(&buf, Some((src, dst))).is_ok());
        let idx = buf.len() - 1 - (flip % payload.len().min(8));
        buf[idx] ^= 0x10;
        prop_assert!(TcpHeader::decode(&buf, Some((src, dst))).is_err());
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
