//! IPv4 fragmentation, reassembly, and the tiny-fragment evasion the
//! paper's classifier must survive.
//!
//! The §2 classifier counts only packets with *zero fragment offset*, on
//! the assumption that the TCP flags always travel in the first fragment.
//! RFC 1858 documents the attack on that assumption: an attacker can
//! fragment so that the first fragment carries fewer than 14 bytes of TCP
//! header — the flag byte then rides in the *second* fragment (offset 1),
//! which the classifier skips. A flood fragmented this way is invisible
//! to a naive flag counter.
//!
//! This module provides:
//!
//! - [`fragment_ipv4`] — standards-conformant fragmentation of an IPv4
//!   packet to an MTU (offsets in 8-byte units, MF flags, per-fragment
//!   checksums), including the attacker's malicious tiny-first-fragment
//!   variant,
//! - [`Reassembler`] — keyed reassembly with a timeout, which restores
//!   classifiability at the cost of per-flow state,
//! - [`tiny_fragment_filter`] — RFC 1858's stateless countermeasure: drop
//!   first fragments too short to contain the TCP flags and the
//!   offset-one overlap trick, which restores the classifier's soundness
//!   *without* giving up statelessness.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::error::NetError;
use crate::ipv4::{Ipv4Header, PROTO_TCP};

/// Offset (bytes from TCP header start) past the flag byte: a first
/// fragment must carry at least this much transport header for the
/// classifier to read flags. RFC 1858 uses the same constant (it protects
/// bytes 0..=13, i.e. through the flags field).
pub const MIN_FIRST_FRAGMENT_TRANSPORT_BYTES: usize = 14;

/// One IPv4 fragment: raw bytes of a complete IPv4 packet (no link
/// layer).
pub type FragmentBytes = Vec<u8>;

/// Fragments an IPv4 packet (no link-layer header) to the given MTU.
///
/// `malicious_first_len`, when set, forces the first fragment's payload
/// to that many bytes (must be a multiple of 8 and less than
/// `MIN_FIRST_FRAGMENT_TRANSPORT_BYTES` to enact the tiny-fragment
/// attack).
///
/// # Errors
///
/// Returns [`NetError::InvalidField`] if the MTU cannot carry the header
/// plus 8 payload bytes, or a malicious length is not a multiple of 8,
/// and propagates header decode errors.
pub fn fragment_ipv4(
    packet: &[u8],
    mtu: usize,
    malicious_first_len: Option<usize>,
) -> Result<Vec<FragmentBytes>, NetError> {
    let (header, payload) = Ipv4Header::decode(packet, false)?;
    let header_len = header.header_len();
    if mtu < header_len + 8 {
        return Err(NetError::InvalidField {
            layer: "ipv4",
            field: "mtu",
            value: mtu as u64,
        });
    }
    // Per-fragment payload must be a multiple of 8 (offsets are in 8-byte
    // units), except for the last fragment.
    let default_chunk = (mtu - header_len) / 8 * 8;
    if let Some(first) = malicious_first_len {
        if first == 0 || first % 8 != 0 {
            return Err(NetError::InvalidField {
                layer: "ipv4",
                field: "malicious_first_len",
                value: first as u64,
            });
        }
    }
    let mut fragments = Vec::new();
    let mut offset_bytes = 0usize;
    while offset_bytes < payload.len() {
        let chunk = if offset_bytes == 0 {
            malicious_first_len.unwrap_or(default_chunk)
        } else {
            default_chunk
        }
        .min(payload.len() - offset_bytes);
        let last = offset_bytes + chunk >= payload.len();
        let mut fragment_header = header.clone();
        fragment_header.fragment_offset = (offset_bytes / 8) as u16;
        fragment_header.more_fragments = !last;
        fragment_header.dont_fragment = false;
        fragment_header.total_len = (header_len + chunk) as u16;
        let mut bytes = Vec::with_capacity(header_len + chunk);
        fragment_header.encode(&mut bytes)?;
        bytes.extend_from_slice(&payload[offset_bytes..offset_bytes + chunk]);
        fragments.push(bytes);
        offset_bytes += chunk;
    }
    Ok(fragments)
}

/// RFC 1858's stateless filter, returning `true` when the fragment must
/// be DROPPED:
///
/// - a TCP first fragment (offset 0, MF set) carrying fewer than 14 bytes
///   of transport header (the tiny-fragment attack), and
/// - any TCP fragment with offset 1 (8 bytes), which exists only to
///   overwrite the flags of a minimal first fragment on reassembly (the
///   overlapping-fragment attack).
///
/// Returns `false` (pass) for anything else, including undecodable
/// packets — a filter must fail open for non-IP garbage it cannot parse,
/// which the router drops elsewhere.
pub fn tiny_fragment_filter(packet: &[u8]) -> bool {
    let Ok((header, payload)) = Ipv4Header::decode(packet, false) else {
        return false;
    };
    if header.protocol != PROTO_TCP {
        return false;
    }
    if header.fragment_offset == 0
        && header.more_fragments
        && payload.len() < MIN_FIRST_FRAGMENT_TRANSPORT_BYTES
    {
        return true;
    }
    header.fragment_offset == 1
}

/// Key identifying a fragment train (RFC 791: src, dst, protocol, id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FragmentKey {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    identification: u16,
}

/// The largest payload an IPv4 datagram can carry: `total_len` is a u16,
/// so no legitimate fragment can place bytes at or beyond 65 535.
pub const MAX_DATAGRAM_PAYLOAD: usize = 65_535;

/// Cap on buffered pieces per in-progress train. A legitimate worst case
/// is a maximal datagram in minimal 8-byte fragments (65 535 / 8 → 8 192
/// pieces); anything beyond that is a duplicate/overlap flood attacking
/// the reassembler's memory, not a reassemblable datagram.
pub const MAX_FRAGMENTS_PER_DATAGRAM: usize = 8_192;

/// Cap on buffered payload bytes per in-progress train: twice the
/// maximum datagram payload, which admits every legitimate retransmit
/// pattern while bounding a duplicate-fragment flood.
pub const MAX_BUFFERED_BYTES_PER_DATAGRAM: usize = 2 * MAX_DATAGRAM_PAYLOAD;

#[derive(Debug, Clone)]
struct PartialDatagram {
    /// (offset_bytes, payload) pieces, unordered.
    pieces: Vec<(usize, Vec<u8>)>,
    /// Total payload length, known once the MF=0 fragment arrives.
    total_len: Option<usize>,
    /// Buffered payload bytes across `pieces` (duplicates included), for
    /// the per-train memory cap.
    bytes: usize,
    first_seen_micros: u64,
}

/// Reassembles fragment trains back into whole IPv4 packets.
///
/// State per in-progress datagram is bounded by `max_datagrams` and a
/// timeout — reassembly is exactly the kind of per-flow state the paper's
/// stateless design avoids, which is why the RFC 1858 filter (not
/// reassembly) is the recommended countermeasure at a leaf router.
#[derive(Debug, Clone)]
pub struct Reassembler {
    partial: HashMap<FragmentKey, PartialDatagram>,
    timeout_micros: u64,
    max_datagrams: usize,
    evicted_timeout: u64,
    evicted_capacity: u64,
    evicted_oversize: u64,
}

impl Reassembler {
    /// Creates a reassembler holding at most `max_datagrams` in-progress
    /// datagrams, each for at most `timeout_micros`.
    ///
    /// # Panics
    ///
    /// Panics if `max_datagrams` is zero.
    pub fn new(timeout_micros: u64, max_datagrams: usize) -> Self {
        assert!(max_datagrams > 0, "reassembler needs capacity");
        Reassembler {
            partial: HashMap::new(),
            timeout_micros,
            max_datagrams,
            evicted_timeout: 0,
            evicted_capacity: 0,
            evicted_oversize: 0,
        }
    }

    /// Number of in-progress datagrams.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Trains evicted because they outlived the timeout.
    pub fn evicted_timeout(&self) -> u64 {
        self.evicted_timeout
    }

    /// Trains evicted oldest-first to admit a new train at capacity.
    pub fn evicted_capacity(&self) -> u64 {
        self.evicted_capacity
    }

    /// Trains evicted for exceeding a per-train cap
    /// (`MAX_FRAGMENTS_PER_DATAGRAM`, `MAX_BUFFERED_BYTES_PER_DATAGRAM`)
    /// or claiming bytes beyond `MAX_DATAGRAM_PAYLOAD` — duplicate or
    /// oversize fragment floods.
    pub fn evicted_oversize(&self) -> u64 {
        self.evicted_oversize
    }

    /// Offers one fragment (a complete IPv4 packet, no link layer) at
    /// `now_micros`; returns the reassembled full packet when this
    /// fragment completes its train.
    ///
    /// Unfragmented packets return immediately. Overlapping fragments
    /// take the first-arrived bytes (BSD behaviour). Expired and
    /// over-capacity trains are dropped oldest-first.
    ///
    /// # Errors
    ///
    /// Propagates IPv4 decode errors for the offered fragment.
    pub fn offer(&mut self, packet: &[u8], now_micros: u64) -> Result<Option<Vec<u8>>, NetError> {
        self.expire(now_micros);
        let (header, payload) = Ipv4Header::decode(packet, false)?;
        if header.fragment_offset == 0 && !header.more_fragments {
            return Ok(Some(packet.to_vec()));
        }
        let key = FragmentKey {
            src: header.src,
            dst: header.dst,
            protocol: header.protocol,
            identification: header.identification,
        };
        let offset = usize::from(header.fragment_offset) * 8;
        // A fragment claiming bytes past the maximum datagram size cannot
        // belong to a reassemblable packet: poison the whole train rather
        // than buffer it.
        if offset + payload.len() > MAX_DATAGRAM_PAYLOAD {
            if self.partial.remove(&key).is_some() {
                self.evicted_oversize += 1;
            }
            return Ok(None);
        }
        if !self.partial.contains_key(&key) && self.partial.len() >= self.max_datagrams {
            self.drop_oldest();
        }
        let entry = self.partial.entry(key).or_insert(PartialDatagram {
            pieces: Vec::new(),
            total_len: None,
            bytes: 0,
            first_seen_micros: now_micros,
        });
        entry.pieces.push((offset, payload.to_vec()));
        entry.bytes += payload.len();
        if !header.more_fragments {
            entry.total_len = Some(offset + payload.len());
        }
        // Per-train caps: a duplicate-fragment flood on one key must not
        // grow memory without bound even while the key count stays at 1.
        if entry.pieces.len() > MAX_FRAGMENTS_PER_DATAGRAM
            || entry.bytes > MAX_BUFFERED_BYTES_PER_DATAGRAM
        {
            self.partial.remove(&key);
            self.evicted_oversize += 1;
            return Ok(None);
        }
        // Completion check: total known and every byte covered.
        let Some(total) = entry.total_len else {
            return Ok(None);
        };
        let mut covered = vec![false; total];
        for (at, piece) in &entry.pieces {
            let end = (*at + piece.len()).min(total);
            covered[*at..end].iter_mut().for_each(|c| *c = true);
        }
        if !covered.iter().all(|&c| c) {
            return Ok(None);
        }
        // Reassemble: first-arrived bytes win on overlap.
        let mut body = vec![0u8; total];
        let mut written = vec![false; total];
        let pieces = std::mem::take(&mut entry.pieces);
        for (at, piece) in pieces {
            for (i, &byte) in piece.iter().enumerate() {
                let pos = at + i;
                if pos < total && !written[pos] {
                    body[pos] = byte;
                    written[pos] = true;
                }
            }
        }
        self.partial.remove(&key);
        let mut whole = header.clone();
        whole.fragment_offset = 0;
        whole.more_fragments = false;
        whole.total_len = (header.header_len() + total) as u16;
        let mut bytes = Vec::with_capacity(header.header_len() + total);
        whole.encode(&mut bytes)?;
        bytes.extend_from_slice(&body);
        Ok(Some(bytes))
    }

    fn expire(&mut self, now_micros: u64) {
        let timeout = self.timeout_micros;
        let before = self.partial.len();
        self.partial
            .retain(|_, d| now_micros.saturating_sub(d.first_seen_micros) < timeout);
        self.evicted_timeout += (before - self.partial.len()) as u64;
    }

    fn drop_oldest(&mut self) {
        if let Some(key) = self
            .partial
            .iter()
            .min_by_key(|(_, d)| d.first_seen_micros)
            .map(|(k, _)| *k)
        {
            self.partial.remove(&key);
            self.evicted_capacity += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify_ipv4, SegmentKind};
    use crate::packet::PacketBuilder;
    use crate::TcpFlags;

    fn syn_packet(payload_len: usize) -> Vec<u8> {
        let frame = PacketBuilder::tcp(
            "10.0.0.7:1025".parse().unwrap(),
            "199.0.0.80:80".parse().unwrap(),
            TcpFlags::SYN,
        )
        .payload(vec![0xab; payload_len])
        .build()
        .unwrap();
        frame[crate::ethernet::HEADER_LEN..].to_vec() // strip link layer
    }

    #[test]
    fn fragmentation_roundtrip_through_reassembly() {
        let original = syn_packet(100);
        let fragments = fragment_ipv4(&original, 60, None).unwrap();
        assert!(fragments.len() > 1, "must actually fragment");
        let mut reassembler = Reassembler::new(1_000_000, 16);
        let mut result = None;
        for fragment in &fragments {
            if let Some(whole) = reassembler.offer(fragment, 0).unwrap() {
                result = Some(whole);
            }
        }
        let whole = result.expect("reassembly completes");
        // Payload identical; IPv4 id/src/dst identical; classifiable again.
        let (h0, p0) = Ipv4Header::decode(&original, true).unwrap();
        let (h1, p1) = Ipv4Header::decode(&whole, true).unwrap();
        assert_eq!(p0, p1);
        assert_eq!(h0.src, h1.src);
        assert_eq!(h0.identification, h1.identification);
        assert_eq!(classify_ipv4(&whole).unwrap(), SegmentKind::Syn);
        assert_eq!(reassembler.pending(), 0);
    }

    #[test]
    fn out_of_order_fragments_reassemble() {
        let original = syn_packet(120);
        let mut fragments = fragment_ipv4(&original, 60, None).unwrap();
        fragments.reverse();
        let mut reassembler = Reassembler::new(1_000_000, 16);
        let mut result = None;
        for fragment in &fragments {
            if let Some(whole) = reassembler.offer(fragment, 0).unwrap() {
                result = Some(whole);
            }
        }
        let whole = result.expect("order must not matter");
        assert_eq!(classify_ipv4(&whole).unwrap(), SegmentKind::Syn);
    }

    #[test]
    fn fragment_flags_and_offsets_follow_rfc791() {
        let original = syn_packet(200);
        let fragments = fragment_ipv4(&original, 60, None).unwrap();
        let mut expected_offset = 0;
        for (i, fragment) in fragments.iter().enumerate() {
            let (h, p) = Ipv4Header::decode(fragment, true).unwrap();
            assert_eq!(usize::from(h.fragment_offset) * 8, expected_offset);
            assert_eq!(h.more_fragments, i + 1 != fragments.len());
            if h.more_fragments {
                assert_eq!(p.len() % 8, 0, "non-final fragments are 8-byte aligned");
            }
            expected_offset += p.len();
        }
    }

    #[test]
    fn tiny_first_fragment_evades_naive_classifier() {
        // The attack: 8 bytes of TCP header in the first fragment — the
        // flag byte (offset 13) travels in fragment 2.
        let original = syn_packet(50);
        let fragments = fragment_ipv4(&original, 576, Some(8)).unwrap();
        assert!(fragments.len() >= 2);
        // Fragment 1 (offset 0): naive classifier errors (truncated TCP).
        assert!(
            classify_ipv4(&fragments[0]).is_err(),
            "flags unreadable in fragment 1"
        );
        // Fragment 2 (offset 1): skipped as a later fragment.
        assert_eq!(classify_ipv4(&fragments[1]).unwrap(), SegmentKind::NonTcp);
        // Net effect: zero SYNs counted — the evasion.
    }

    #[test]
    fn rfc1858_filter_blocks_the_evasion_and_passes_normal_traffic() {
        let original = syn_packet(50);
        // Malicious train: both the tiny first fragment and its offset-1
        // companion are dropped.
        let evil = fragment_ipv4(&original, 576, Some(8)).unwrap();
        assert!(
            tiny_fragment_filter(&evil[0]),
            "tiny first fragment dropped"
        );
        assert!(tiny_fragment_filter(&evil[1]), "offset-1 fragment dropped");
        // Legitimate traffic passes: whole packets and sane fragments.
        assert!(!tiny_fragment_filter(&original));
        let sane = fragment_ipv4(&syn_packet(200), 60, None).unwrap();
        for fragment in &sane {
            assert!(
                !tiny_fragment_filter(fragment),
                "legitimate fragment wrongly dropped"
            );
        }
        // Non-TCP fragments are not this filter's business.
        let udp = PacketBuilder::non_tcp(
            "10.0.0.7".parse().unwrap(),
            "199.0.0.80".parse().unwrap(),
            crate::ipv4::PROTO_UDP,
        )
        .payload(vec![0u8; 64])
        .build()
        .unwrap();
        let udp_ip = &udp[crate::ethernet::HEADER_LEN..];
        for fragment in fragment_ipv4(udp_ip, 48, None).unwrap() {
            assert!(!tiny_fragment_filter(&fragment));
        }
    }

    #[test]
    fn reassembler_state_is_bounded() {
        let mut reassembler = Reassembler::new(1_000_000, 4);
        // Open 10 trains (only first fragments, never completed) — a
        // fragment flood attacking the reassembler itself.
        for i in 0..10u16 {
            let mut packet = syn_packet(100);
            // Rewrite identification per train and refresh the checksum.
            let (mut h, p) = Ipv4Header::decode(&packet, false).unwrap();
            h.identification = i;
            h.more_fragments = true;
            let mut bytes = Vec::new();
            h.encode(&mut bytes).unwrap();
            bytes.extend_from_slice(&p[..64]);
            packet = bytes;
            reassembler.offer(&packet, u64::from(i)).unwrap();
        }
        assert!(
            reassembler.pending() <= 4,
            "pending {}",
            reassembler.pending()
        );
    }

    #[test]
    fn expired_trains_are_flushed() {
        let original = syn_packet(100);
        let fragments = fragment_ipv4(&original, 60, None).unwrap();
        let mut reassembler = Reassembler::new(1_000, 16);
        reassembler.offer(&fragments[0], 0).unwrap();
        assert_eq!(reassembler.pending(), 1);
        // After the timeout the rest of the train arrives too late.
        let mut completed = false;
        for fragment in &fragments[1..] {
            completed |= reassembler.offer(fragment, 2_000).unwrap().is_some();
        }
        assert!(!completed, "expired train must not complete");
        assert_eq!(reassembler.evicted_timeout(), 1);
        assert_eq!(evictions(&reassembler), 1);
    }

    /// Payload bytes buffered across every in-progress train. Bounded by
    /// `max_datagrams * `[`MAX_BUFFERED_BYTES_PER_DATAGRAM`].
    fn pending_bytes(reassembler: &Reassembler) -> usize {
        reassembler.partial.values().map(|d| d.bytes).sum()
    }

    /// Trains evicted for any reason since construction.
    fn evictions(reassembler: &Reassembler) -> u64 {
        reassembler.evicted_timeout()
            + reassembler.evicted_capacity()
            + reassembler.evicted_oversize()
    }

    /// A first fragment (MF=1) with a per-train identification.
    fn opening_fragment(identification: u16, payload_len: usize) -> Vec<u8> {
        let packet = syn_packet(100);
        let (mut h, p) = Ipv4Header::decode(&packet, false).unwrap();
        h.identification = identification;
        h.more_fragments = true;
        let mut bytes = Vec::new();
        h.encode(&mut bytes).unwrap();
        bytes.extend_from_slice(&p[..payload_len.min(p.len())]);
        bytes
    }

    #[test]
    fn distinct_train_flood_holds_memory_constant() {
        // 10k never-completing trains against a capacity-16 reassembler:
        // the map must stay at 16 entries and account for every eviction.
        const CAPACITY: usize = 16;
        let mut reassembler = Reassembler::new(1_000_000, CAPACITY);
        let mut max_pending = 0;
        let mut max_pending_bytes = 0;
        for i in 0..10_000u16 {
            reassembler.offer(&opening_fragment(i, 64), 0).unwrap();
            max_pending = max_pending.max(reassembler.pending());
            max_pending_bytes = max_pending_bytes.max(pending_bytes(&reassembler));
        }
        assert_eq!(max_pending, CAPACITY);
        assert!(
            max_pending_bytes <= CAPACITY * 64,
            "buffered bytes {max_pending_bytes}"
        );
        assert_eq!(reassembler.evicted_capacity(), 10_000 - CAPACITY as u64);
        assert_eq!(evictions(&reassembler), reassembler.evicted_capacity());
    }

    #[test]
    fn duplicate_fragment_flood_on_one_key_is_bounded() {
        // The key count stays at 1, so the capacity cap never fires; the
        // per-train byte cap must bound the buffered pieces instead.
        let mut reassembler = Reassembler::new(1_000_000, 16);
        let fragment = opening_fragment(7, 96);
        let mut max_pending_bytes = 0;
        for _ in 0..10_000 {
            let out = reassembler.offer(&fragment, 0).unwrap();
            assert!(out.is_none(), "the train never completes");
            max_pending_bytes = max_pending_bytes.max(pending_bytes(&reassembler));
        }
        assert!(reassembler.pending() <= 1);
        assert!(
            max_pending_bytes <= MAX_BUFFERED_BYTES_PER_DATAGRAM,
            "buffered bytes {max_pending_bytes}"
        );
        assert!(
            reassembler.evicted_oversize() >= 5,
            "oversize evictions {}",
            reassembler.evicted_oversize()
        );
    }

    #[test]
    fn fragment_past_max_datagram_size_poisons_its_train() {
        let mut reassembler = Reassembler::new(1_000_000, 16);
        reassembler.offer(&opening_fragment(3, 64), 0).unwrap();
        assert_eq!(reassembler.pending(), 1);
        // Same train, offset beyond what any u16 total_len can describe.
        let packet = syn_packet(100);
        let (mut h, p) = Ipv4Header::decode(&packet, false).unwrap();
        h.identification = 3;
        h.more_fragments = true;
        h.fragment_offset = 8_191; // 65 528 bytes in; 64-byte payload overruns
        let mut bytes = Vec::new();
        h.encode(&mut bytes).unwrap();
        bytes.extend_from_slice(&p[..64]);
        assert!(reassembler.offer(&bytes, 0).unwrap().is_none());
        assert_eq!(reassembler.pending(), 0, "poisoned train removed");
        assert_eq!(reassembler.evicted_oversize(), 1);
    }

    #[test]
    fn unfragmented_packets_pass_straight_through() -> Result<(), NetError> {
        let original = syn_packet(30);
        let mut reassembler = Reassembler::new(1_000_000, 4);
        let out = reassembler.offer(&original, 0)?;
        assert_eq!(out.as_deref(), Some(&original[..]));
        assert_eq!(reassembler.pending(), 0);
        Ok(())
    }

    #[test]
    fn mtu_too_small_rejected() {
        let original = syn_packet(100);
        let err = fragment_ipv4(&original, 20, None).unwrap_err();
        assert!(matches!(err, NetError::InvalidField { field: "mtu", .. }));
        let err = fragment_ipv4(&original, 576, Some(7)).unwrap_err();
        assert!(matches!(
            err,
            NetError::InvalidField {
                field: "malicious_first_len",
                ..
            }
        ));
    }
}
