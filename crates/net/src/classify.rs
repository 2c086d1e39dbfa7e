//! The paper's packet-classification algorithm (§2, after \[31\]).
//!
//! > "Briefly, packets are classified as follows. First, we check if the IP
//! > packet contains a TCP header. The IP packet that contains the TCP
//! > header must have zero fragmentation offset. Then we compute the offset
//! > of TCP flag bits in the IP packet. Finally, the six TCP flag bits are
//! > read to determine the type of the TCP segment."
//!
//! [`classify`] implements exactly that, operating on raw frame bytes with
//! no allocation and no per-connection state — the statelessness that makes
//! SYN-dog itself immune to flooding. It reads only the bytes it needs: the
//! EtherType, the IPv4 protocol/fragment fields, and the single flag byte at
//! its computed offset.

use crate::error::NetError;
use crate::ethernet;
use crate::ipv4::PROTO_TCP;
use crate::tcp::TcpFlags;

/// The classification the sniffers act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Connection request: SYN set, ACK clear. Counted by the outbound
    /// (first-mile) sniffer.
    Syn,
    /// Handshake answer: SYN and ACK set. Counted by the inbound
    /// (last-mile) sniffer.
    SynAck,
    /// Connection reset.
    Rst,
    /// Teardown: FIN set (possibly with ACK).
    Fin,
    /// Pure acknowledgment: ACK set, no data-bearing meaning inferred.
    Ack,
    /// Any other TCP segment (data, URG-only oddities, …).
    OtherTcp,
    /// An IPv4 packet that is not a classifiable TCP segment: non-TCP
    /// protocol, or a later fragment.
    NonTcp,
}

impl SegmentKind {
    /// Every kind, in tally order. `ALL[k.index()] == k` for each kind `k`,
    /// which is what lets a per-kind tally use a flat array.
    pub const ALL: [SegmentKind; 7] = [
        SegmentKind::Syn,
        SegmentKind::SynAck,
        SegmentKind::Rst,
        SegmentKind::Fin,
        SegmentKind::Ack,
        SegmentKind::OtherTcp,
        SegmentKind::NonTcp,
    ];

    /// This kind's position in [`SegmentKind::ALL`]: its declaration
    /// order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// A stable lowercase name, used as the `kind` label on telemetry
    /// series (`syndog_segments_total{kind="syn"}`).
    pub fn label(self) -> &'static str {
        match self {
            SegmentKind::Syn => "syn",
            SegmentKind::SynAck => "synack",
            SegmentKind::Rst => "rst",
            SegmentKind::Fin => "fin",
            SegmentKind::Ack => "ack",
            SegmentKind::OtherTcp => "other_tcp",
            SegmentKind::NonTcp => "non_tcp",
        }
    }
}

/// Classifies raw Ethernet frame bytes.
///
/// Follows the paper's three steps and reads the minimum necessary bytes;
/// no full header decode and no checksum verification is performed — a leaf
/// router's fast path cannot afford either, and the algorithm does not need
/// them.
///
/// # Errors
///
/// Returns [`NetError::Truncated`] if the frame is too short to hold the
/// fields the algorithm must read, and [`NetError::InvalidField`] for a
/// non-IPv4 version nibble in an IPv4 EtherType frame.
#[inline]
pub fn classify(frame: &[u8]) -> Result<SegmentKind, NetError> {
    // Step 0: link layer. Anything but IPv4 is NonTcp for our purposes.
    if frame.len() < ethernet::HEADER_LEN {
        return Err(NetError::Truncated {
            layer: "ethernet",
            needed: ethernet::HEADER_LEN,
            available: frame.len(),
        });
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return Ok(SegmentKind::NonTcp);
    }
    let ip = &frame[ethernet::HEADER_LEN..];
    classify_ipv4(ip)
}

/// Classifies raw IPv4 packet bytes (no link-layer header).
///
/// # Errors
///
/// Same conditions as [`classify`].
#[inline]
pub fn classify_ipv4(ip: &[u8]) -> Result<SegmentKind, NetError> {
    if ip.len() < crate::ipv4::MIN_HEADER_LEN {
        return Err(NetError::Truncated {
            layer: "ipv4",
            needed: crate::ipv4::MIN_HEADER_LEN,
            available: ip.len(),
        });
    }
    let version = ip[0] >> 4;
    if version != 4 {
        return Err(NetError::InvalidField {
            layer: "ipv4",
            field: "version",
            value: u64::from(version),
        });
    }
    // Step 1: does the IP packet contain a TCP header? It must be protocol 6
    // *and* have zero fragmentation offset.
    if ip[9] != PROTO_TCP {
        return Ok(SegmentKind::NonTcp);
    }
    let fragment_offset = u16::from_be_bytes([ip[6], ip[7]]) & 0x1fff;
    if fragment_offset != 0 {
        return Ok(SegmentKind::NonTcp);
    }
    // Step 2: compute the offset of the TCP flag bits in the IP packet.
    let ihl = usize::from(ip[0] & 0x0f) * 4;
    if !(crate::ipv4::MIN_HEADER_LEN..=crate::ipv4::MAX_HEADER_LEN).contains(&ihl) {
        return Err(NetError::InvalidField {
            layer: "ipv4",
            field: "ihl",
            value: ihl as u64,
        });
    }
    let flags_offset = ihl + 13;
    if ip.len() <= flags_offset {
        return Err(NetError::Truncated {
            layer: "tcp",
            needed: flags_offset + 1,
            available: ip.len(),
        });
    }
    // Step 3: read the six TCP flag bits and determine the segment type.
    let flags = TcpFlags::from_bits_truncate(ip[flags_offset]);
    Ok(kind_of(flags))
}

/// Maps flag bits to a [`SegmentKind`]. RST dominates, then the SYN forms,
/// then FIN, matching how endpoints interpret simultaneous flags. URG, ECE
/// and CWR never decide a kind, so this is one load from a table indexed by
/// the low five bits (FIN, SYN, RST, PSH, ACK): no branch for a mixed
/// stream of kinds to mispredict.
#[inline]
pub fn kind_of(flags: TcpFlags) -> SegmentKind {
    KINDS[usize::from(flags.bits() & 0x1f)]
}

/// [`kind_of`] for every value of the low five flag bits, built at compile
/// time from the one rule.
const KINDS: [SegmentKind; 32] = kinds();

const fn kinds() -> [SegmentKind; 32] {
    let mut table = [SegmentKind::OtherTcp; 32];
    let mut bits = 0;
    while bits < table.len() {
        let flags = TcpFlags::from_raw_bits(bits as u8);
        table[bits] = if flags.contains(TcpFlags::RST) {
            SegmentKind::Rst
        } else if flags.is_syn_ack() {
            SegmentKind::SynAck
        } else if flags.is_pure_syn() {
            SegmentKind::Syn
        } else if flags.contains(TcpFlags::FIN) {
            SegmentKind::Fin
        } else if flags.contains(TcpFlags::ACK) {
            SegmentKind::Ack
        } else {
            SegmentKind::OtherTcp
        };
        bits += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;
    use std::net::{Ipv4Addr, SocketAddrV4};

    fn addr(s: &str) -> SocketAddrV4 {
        s.parse().unwrap()
    }

    fn classify_built(flags: TcpFlags) -> SegmentKind {
        let bytes = PacketBuilder::tcp(addr("10.0.0.1:1025"), addr("192.0.2.80:80"), flags)
            .build()
            .unwrap();
        classify(&bytes).unwrap()
    }

    #[test]
    fn flag_truth_table() {
        assert_eq!(classify_built(TcpFlags::SYN), SegmentKind::Syn);
        assert_eq!(
            classify_built(TcpFlags::SYN | TcpFlags::ACK),
            SegmentKind::SynAck
        );
        assert_eq!(classify_built(TcpFlags::ACK), SegmentKind::Ack);
        assert_eq!(
            classify_built(TcpFlags::FIN | TcpFlags::ACK),
            SegmentKind::Fin
        );
        assert_eq!(classify_built(TcpFlags::RST), SegmentKind::Rst);
        assert_eq!(
            classify_built(TcpFlags::RST | TcpFlags::ACK),
            SegmentKind::Rst
        );
        assert_eq!(classify_built(TcpFlags::EMPTY), SegmentKind::OtherTcp);
        assert_eq!(classify_built(TcpFlags::URG), SegmentKind::OtherTcp);
        assert_eq!(
            classify_built(TcpFlags::PSH | TcpFlags::ACK),
            SegmentKind::Ack
        );
    }

    #[test]
    fn kind_of_follows_the_rule_on_every_flag_byte() {
        for byte in 0..=u8::MAX {
            let set = |bit: u8| byte & bit != 0;
            let (fin, syn, rst, ack) = (set(0x01), set(0x02), set(0x04), set(0x10));
            let expected = if rst {
                SegmentKind::Rst
            } else if syn && ack {
                SegmentKind::SynAck
            } else if syn && !ack && !rst && !fin {
                SegmentKind::Syn
            } else if fin {
                SegmentKind::Fin
            } else if ack {
                SegmentKind::Ack
            } else {
                SegmentKind::OtherTcp
            };
            let kind = kind_of(TcpFlags::from_raw_bits(byte));
            assert_eq!(kind, expected, "flags {byte:#010b}");
            // PSH, URG, ECE and CWR never change a kind.
            assert_eq!(kind, kind_of(TcpFlags::from_raw_bits(byte & 0x1f)));
            assert_eq!(kind, kind_of(TcpFlags::from_bits_truncate(byte)));
        }
    }

    #[test]
    fn all_lists_the_kinds_in_index_order() {
        for (i, kind) in SegmentKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn syn_with_rst_is_rst_not_syn() {
        // A nonsense combination must not inflate the SYN count.
        assert_eq!(
            classify_built(TcpFlags::SYN | TcpFlags::RST),
            SegmentKind::Rst
        );
    }

    #[test]
    fn non_tcp_protocol_is_not_counted() {
        let bytes = PacketBuilder::non_tcp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            crate::ipv4::PROTO_UDP,
        )
        .payload(vec![0u8; 40])
        .build()
        .unwrap();
        assert_eq!(classify(&bytes).unwrap(), SegmentKind::NonTcp);
    }

    #[test]
    fn later_fragment_is_not_counted() {
        // Paper: "The IP packet that contains the TCP header must have zero
        // fragmentation offset." A fragmented middle piece whose first
        // payload byte happens to look like flags must be excluded.
        let bytes = PacketBuilder::tcp(addr("1.1.1.1:1"), addr("2.2.2.2:2"), TcpFlags::SYN)
            .fragment_offset(2)
            .payload(vec![0xff; 40])
            .build()
            .unwrap();
        assert_eq!(classify(&bytes).unwrap(), SegmentKind::NonTcp);
    }

    #[test]
    fn non_ipv4_ethertype_is_non_tcp() {
        let mut bytes = PacketBuilder::tcp(addr("1.1.1.1:1"), addr("2.2.2.2:2"), TcpFlags::SYN)
            .build()
            .unwrap();
        bytes[12] = 0x86;
        bytes[13] = 0xdd; // IPv6
        assert_eq!(classify(&bytes).unwrap(), SegmentKind::NonTcp);
    }

    #[test]
    fn truncated_frames_error() {
        assert!(classify(&[0u8; 5]).is_err());
        let bytes = PacketBuilder::tcp(addr("1.1.1.1:1"), addr("2.2.2.2:2"), TcpFlags::SYN)
            .build()
            .unwrap();
        // Cut inside the TCP header, before the flags byte.
        assert!(classify(&bytes[..14 + 20 + 5]).is_err());
    }

    #[test]
    fn classification_agrees_with_full_decode() {
        // The fast path must agree with the full parser on every flag combo.
        for bits in 0..64u8 {
            let flags = TcpFlags::from_bits_truncate(bits);
            let bytes = PacketBuilder::tcp(addr("10.0.0.1:1"), addr("10.0.0.2:2"), flags)
                .build()
                .unwrap();
            let fast = classify(&bytes).unwrap();
            let full = crate::packet::Packet::decode(&bytes).unwrap();
            let slow = kind_of(full.tcp.unwrap().flags);
            assert_eq!(fast, slow, "flags {bits:#08b}");
        }
    }

    #[test]
    fn classify_ipv4_without_link_layer() {
        let bytes = PacketBuilder::tcp(addr("1.1.1.1:1"), addr("2.2.2.2:2"), TcpFlags::SYN)
            .build()
            .unwrap();
        assert_eq!(classify_ipv4(&bytes[14..]).unwrap(), SegmentKind::Syn);
    }
}
