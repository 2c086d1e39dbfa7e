//! Pinned generator streams: FNV-1a digests of every site's period counts,
//! of full traces and of the pcap bytes synthesized from one, so a change
//! to any random draw's order or arithmetic, to the order of records, or
//! to a synthesized frame's bytes shows here.

use std::net::SocketAddrV4;

use syndog_fingerprint::extract_syn;
use syndog_net::{MacAddr, SegmentKind};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::load::attack_fingerprint;
use syndog_traffic::sites::SiteProfile;
use syndog_traffic::{Direction, Trace, TraceRecord};

// Only the frame shapes are used here; the rest serves the importer tests.
#[allow(dead_code)]
mod corpus;

use corpus::base_frame;

/// 64-bit FNV-1a over `words`, each hashed as its little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn period_count_streams_are_pinned() {
    // One row per site of `SiteProfile::all()`, one column per seed.
    const PINNED: [[u64; 3]; 4] = [
        [0x9e3c68da7f89bff4, 0x3ea4a80680bb8840, 0x359dae80b381079c],
        [0xa3ad34849cf4666a, 0x545ffd00fea8e464, 0x58243185ff416c62],
        [0x9e901d8f142818bf, 0x30975d7460a16b24, 0x7bc45a69c8b26888],
        [0x47a67f4f6e4c5edb, 0x1ee9b2b5c605e4d9, 0x52b159cd0d44ff23],
    ];
    for (site, want) in SiteProfile::all().iter().zip(PINNED) {
        let got = [1, 7, 20_020_701].map(|seed| {
            let counts = site.generate_period_counts(&mut SimRng::seed_from_u64(seed));
            fnv1a(counts.iter().flat_map(|c| [c.syn, c.synack]))
        });
        assert_eq!(got, want, "{}: {got:#018x?}", site.name());
    }
}

#[test]
fn trace_streams_are_pinned() {
    for (site, want) in [
        (SiteProfile::lbl(), 0x3ae14537f20c5f56),
        (SiteProfile::auckland(), 0x128627b262b299c4),
    ] {
        let site = site.with_duration(SimDuration::from_secs(600));
        let trace = site.generate_trace(&mut SimRng::seed_from_u64(20_020_701));
        let got = fnv1a(trace.records().iter().flat_map(|r| {
            let direction = u64::from(r.direction == Direction::Outbound);
            [r.time.as_micros(), direction, r.kind as u64, r.fp]
        }));
        assert_eq!(got, want, "{} trace: {got:#018x}", site.name());
    }
}

/// 64-bit FNV-1a over raw bytes.
fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every field of a record, as digest words.
fn record_words(r: &TraceRecord) -> [u64; 7] {
    let mac = r.src_mac.octets();
    [
        r.time.as_micros(),
        u64::from(r.direction == Direction::Outbound),
        r.kind as u64,
        u64::from(u32::from(*r.src.ip())) << 16 | u64::from(r.src.port()),
        u64::from(u32::from(*r.dst.ip())) << 16 | u64::from(r.dst.port()),
        u64::from_be_bytes([0, 0, mac[0], mac[1], mac[2], mac[3], mac[4], mac[5]]),
        r.fp,
    ]
}

/// Whole records, endpoints and MACs included, so the order of records
/// that share a timestamp is pinned too: generation keeps the order in
/// which a site's handshakes emit them.
#[test]
fn full_record_streams_are_pinned() {
    for (site, want) in [
        (SiteProfile::unc(), 0x8ebb74f2a12803b3),
        (SiteProfile::harvard(), 0x1b6f424fa148ebfc),
    ] {
        let site = site.with_duration(SimDuration::from_secs(300));
        let trace = site.generate_trace(&mut SimRng::seed_from_u64(20_020_701));
        let ties = trace
            .records()
            .windows(2)
            .filter(|pair| pair[0].time == pair[1].time)
            .count();
        assert!(ties > 0, "{}: {ties} equal timestamps", site.name());
        assert!(trace.records().windows(2).all(|p| p[0].time <= p[1].time));
        let got = fnv1a(trace.records().iter().flat_map(record_words));
        assert_eq!(got, want, "{} records: {got:#018x}", site.name());
    }
}

/// The frame synthesizer's bytes: a UNC minute with a fingerprinted
/// flood merged in, one record of every kind (a `NonTcp` one included)
/// and SYNs fingerprinted like the corpus's IP-option (8) and
/// every-quirk (9) shapes, exported through `write_pcap`; and the corpus
/// frames themselves, built by `PacketBuilder`.
#[test]
fn synthesized_pcap_bytes_are_pinned() {
    let mut trace = SiteProfile::unc()
        .with_duration(SimDuration::from_secs(60))
        .generate_trace(&mut SimRng::seed_from_u64(5));
    let victim: SocketAddrV4 = "199.0.0.80:80".parse().unwrap();
    let mut flood = Trace::new(SimDuration::from_secs(40));
    for i in 0..1_200u32 {
        let src = SocketAddrV4::new([10, (i >> 8) as u8, i as u8, 1].into(), 1024 + i as u16);
        flood.push(
            TraceRecord::new(
                SimTime::from_micros(10_000_000 + u64::from(i) * 25_000),
                Direction::Outbound,
                SegmentKind::Syn,
                src,
                victim,
            )
            .with_mac(MacAddr::for_host(0xff00, 7))
            .with_fp(attack_fingerprint().to_bits()),
        );
    }
    trace.merge(&flood);
    let inside: SocketAddrV4 = "152.2.3.4:1025".parse().unwrap();
    let mut extra = Trace::new(SimDuration::from_secs(60));
    for (i, kind) in [
        SegmentKind::Syn,
        SegmentKind::SynAck,
        SegmentKind::Rst,
        SegmentKind::Fin,
        SegmentKind::Ack,
        SegmentKind::OtherTcp,
        SegmentKind::NonTcp,
    ]
    .into_iter()
    .enumerate()
    {
        extra.push(
            TraceRecord::new(
                SimTime::from_micros(30_000_000 + i as u64),
                Direction::Outbound,
                kind,
                inside,
                victim,
            )
            .with_mac(MacAddr::for_host(2, 4)),
        );
    }
    for (i, shape) in [8u8, 9].into_iter().enumerate() {
        let fp = extract_syn(&base_frame(shape, false, 77)).expect("a SYN shape");
        extra.push(
            TraceRecord::new(
                SimTime::from_micros(31_000_000 + i as u64),
                Direction::Outbound,
                SegmentKind::Syn,
                inside,
                victim,
            )
            .with_fp(fp.to_bits()),
        );
    }
    trace.merge(&extra);
    let mut pcap = Vec::new();
    trace.write_pcap(&mut pcap).unwrap();
    let got = fnv1a_bytes(pcap.iter().copied());
    assert_eq!(
        got,
        0xcc3b05e88b753e3b,
        "pcap bytes ({} B): {got:#018x}",
        pcap.len()
    );

    let frames = (0..10u8).flat_map(|shape| {
        [false, true]
            .into_iter()
            .flat_map(move |inbound| base_frame(shape, inbound, 300 + u16::from(shape)))
    });
    let got = fnv1a_bytes(frames);
    assert_eq!(got, 0xd7692b296c279275, "corpus frames: {got:#018x}");
}
