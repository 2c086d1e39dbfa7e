//! Ethernet II frame header.
//!
//! The leaf-router simulation carries IPv4 packets inside Ethernet II frames
//! so that the localization stage (§4.2.3 of the paper) can observe source
//! MAC addresses. Only the 14-byte header is modeled; the frame check
//! sequence is omitted, as it is in pcap captures.

use crate::addr::MacAddr;
use crate::error::NetError;

/// Length of an Ethernet II header in bytes.
pub const HEADER_LEN: usize = 14;

/// The EtherType field of an Ethernet II frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4, `0x0800`.
    Ipv4,
    /// ARP, `0x0806`.
    Arp,
    /// IPv6, `0x86dd`.
    Ipv6,
    /// Any other value.
    Other(u16),
}

impl EtherType {
    /// The raw 16-bit value carried on the wire.
    pub fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(v) => v,
        }
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

/// A decoded Ethernet II header.
///
/// A [`Packet`](crate::Packet) carries one:
///
/// ```
/// use syndog_net::{MacAddr, Packet, PacketBuilder, TcpFlags};
///
/// let frame = PacketBuilder::tcp(
///     "10.0.0.7:1025".parse().unwrap(),
///     "192.0.2.80:80".parse().unwrap(),
///     TcpFlags::SYN,
/// )
/// .src_mac(MacAddr::for_host(1, 2))
/// .dst_mac(MacAddr::BROADCAST)
/// .build()
/// .unwrap();
/// let hdr = Packet::decode(&frame).unwrap().ethernet;
/// assert_eq!(hdr.src, MacAddr::for_host(1, 2));
/// assert_eq!(hdr.dst, MacAddr::BROADCAST);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Decodes a header from the front of `bytes`, returning the header and
    /// the remaining payload slice.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] if `bytes` is shorter than 14 bytes.
    pub fn decode(bytes: &[u8]) -> Result<(Self, &[u8]), NetError> {
        if bytes.len() < HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "ethernet",
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        let (header, payload) = bytes.split_at(HEADER_LEN);
        Ok((
            EthernetHeader::from_wire(header.try_into().expect("split at the header length")),
            payload,
        ))
    }

    /// Reads the fields of a 14-byte header.
    pub(crate) fn from_wire(header: &[u8; HEADER_LEN]) -> Self {
        let [d0, d1, d2, d3, d4, d5, s0, s1, s2, s3, s4, s5, t0, t1] = *header;
        EthernetHeader {
            dst: MacAddr([d0, d1, d2, d3, d4, d5]),
            src: MacAddr([s0, s1, s2, s3, s4, s5]),
            ethertype: u16::from_be_bytes([t0, t1]).into(),
        }
    }

    /// The one Ethernet header writer: the 14-byte wire representation.
    #[inline]
    pub(crate) fn to_wire(self) -> [u8; HEADER_LEN] {
        let ([d0, d1, d2, d3, d4, d5], [s0, s1, s2, s3, s4, s5]) = (self.dst.0, self.src.0);
        let [t0, t1] = self.ethertype.as_u16().to_be_bytes();
        [d0, d1, d2, d3, d4, d5, s0, s1, s2, s3, s4, s5, t0, t1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EthernetHeader {
        EthernetHeader {
            dst: MacAddr::new([1, 2, 3, 4, 5, 6]),
            src: MacAddr::new([7, 8, 9, 10, 11, 12]),
            ethertype: EtherType::Ipv4,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let hdr = sample();
        let buf = hdr.to_wire();
        let (decoded, rest) = EthernetHeader::decode(&buf).unwrap();
        assert_eq!(decoded, hdr);
        assert!(rest.is_empty());
    }

    #[test]
    fn decode_leaves_payload_intact() {
        let hdr = sample();
        let mut buf = hdr.to_wire().to_vec();
        buf.extend_from_slice(b"payload");
        let (_, rest) = EthernetHeader::decode(&buf).unwrap();
        assert_eq!(rest, b"payload");
    }

    #[test]
    fn decode_truncated_fails() {
        let err = EthernetHeader::decode(&[0u8; 13]).unwrap_err();
        assert!(matches!(
            err,
            NetError::Truncated {
                layer: "ethernet",
                ..
            }
        ));
    }

    #[test]
    fn ethertype_mapping_is_bijective_for_known_values() {
        for et in [
            EtherType::Ipv4,
            EtherType::Arp,
            EtherType::Ipv6,
            EtherType::Other(0x1234),
        ] {
            assert_eq!(EtherType::from(et.as_u16()), et);
        }
    }

    #[test]
    fn wire_layout_matches_spec() {
        let buf = sample().to_wire();
        // dst | src | ethertype, big endian.
        assert_eq!(&buf[0..6], &[1, 2, 3, 4, 5, 6]);
        assert_eq!(&buf[6..12], &[7, 8, 9, 10, 11, 12]);
        assert_eq!(&buf[12..14], &[0x08, 0x00]);
    }
}
