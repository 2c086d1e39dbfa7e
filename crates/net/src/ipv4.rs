//! IPv4 header encoding, decoding and the Internet checksum.
//!
//! The paper's packet classifier (§2) requires two IPv4-level facts about
//! every packet: whether the payload protocol is TCP, and whether the
//! fragment offset is zero ("The IP packet that contains the TCP header must
//! have zero fragmentation offset"). This module provides a complete header
//! implementation — including options, so that classification is exercised
//! against variable-length headers — plus the RFC 1071 checksum shared with
//! the TCP layer.

use std::net::Ipv4Addr;

use crate::error::NetError;

/// Minimum (option-less) IPv4 header length in bytes.
pub const MIN_HEADER_LEN: usize = 20;

/// Maximum IPv4 header length in bytes (IHL = 15).
pub const MAX_HEADER_LEN: usize = 60;

/// IANA protocol number for TCP.
pub const PROTO_TCP: u8 = 6;

/// IANA protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

/// Computes the RFC 1071 Internet checksum over `data`.
///
/// The ones'-complement sum is folded until it fits 16 bits and then
/// complemented. A trailing odd byte is padded with zero, per the RFC.
#[inline]
pub fn internet_checksum(data: &[u8]) -> u16 {
    checksum_finish(checksum_accumulate(0, data))
}

/// Adds `data` into a running ones'-complement accumulator.
///
/// The bytes are summed as big-endian 32-bit words, a trailing partial
/// word padded with zeros: since `2^16 ≡ 1 (mod 0xffff)`, that is the
/// RFC's sum of 16-bit words once folded, with half the additions. Every
/// part but the last of a chained sum must have an even length.
/// Exposed so the TCP layer can chain the pseudo-header and segment without
/// copying them into one buffer.
#[inline]
pub fn checksum_accumulate(mut acc: u64, data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(4);
    for word in &mut words {
        acc += u64::from(u32::from_be_bytes([word[0], word[1], word[2], word[3]]));
    }
    let tail = words.remainder();
    let byte = |i: usize| u32::from(tail.get(i).copied().unwrap_or(0)) << (24 - 8 * i);
    acc + u64::from(byte(0) | byte(1) | byte(2))
}

/// Folds and complements a checksum accumulator into the 16-bit field value.
#[inline]
pub fn checksum_finish(mut acc: u64) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    !(acc as u16)
}

/// A decoded IPv4 header.
///
/// All multi-byte fields are stored in host order; encoding converts to
/// network order. The `header_checksum` field is filled by [`encode`] and
/// verified (when requested) by [`decode`].
///
/// [`encode`]: Ipv4Header::encode
/// [`decode`]: Ipv4Header::decode
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ipv4Header {
    /// Differentiated services / type-of-service byte.
    pub tos: u8,
    /// Total length of the datagram (header + payload) in bytes.
    pub total_len: u16,
    /// Identification field, used for reassembly of fragments.
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in units of 8 bytes.
    pub fragment_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol number (6 = TCP).
    pub protocol: u8,
    /// Header checksum as carried on the wire (0 before encoding).
    pub header_checksum: u16,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Raw option bytes; must encode to a multiple of 4 bytes and at most 40.
    pub options: Vec<u8>,
}

impl Ipv4Header {
    /// Creates a minimal TCP-carrying header with sensible defaults
    /// (TTL 64, no fragmentation, no options). `payload_len` is the TCP
    /// segment length in bytes.
    pub fn for_tcp(src: Ipv4Addr, dst: Ipv4Addr, payload_len: usize) -> Self {
        Ipv4Header {
            tos: 0,
            total_len: (MIN_HEADER_LEN + payload_len) as u16,
            identification: 0,
            dont_fragment: true,
            more_fragments: false,
            fragment_offset: 0,
            ttl: 64,
            protocol: PROTO_TCP,
            header_checksum: 0,
            src,
            dst,
            options: Vec::new(),
        }
    }

    /// Header length in bytes, including options padded to 4-byte words.
    pub fn header_len(&self) -> usize {
        MIN_HEADER_LEN + padded_options_len(&self.options)
    }

    /// Internet header length field value (32-bit words).
    pub fn ihl(&self) -> u8 {
        (self.header_len() / 4) as u8
    }

    /// The one IPv4 header writer: fills `out` with the wire header, its
    /// options padded with End-of-Options (0) and its checksum computed,
    /// then zeros, and returns the header length.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Oversize`] if options exceed 40 bytes and
    /// [`NetError::InvalidField`] if `fragment_offset` exceeds 13 bits.
    #[inline]
    pub(crate) fn write(&self, out: &mut [u8; MAX_HEADER_LEN]) -> Result<usize, NetError> {
        if padded_options_len(&self.options) > MAX_HEADER_LEN - MIN_HEADER_LEN {
            return Err(NetError::Oversize {
                layer: "ipv4 options",
                limit: MAX_HEADER_LEN - MIN_HEADER_LEN,
                requested: self.options.len(),
            });
        }
        if self.fragment_offset > 0x1fff {
            return Err(NetError::InvalidField {
                layer: "ipv4",
                field: "fragment_offset",
                value: u64::from(self.fragment_offset),
            });
        }
        let flags_frag = self.fragment_offset
            | u16::from(self.dont_fragment) << 14
            | u16::from(self.more_fragments) << 13;
        // RFC 791's five 32-bit rows; the checksum is zero while it is
        // computed.
        let rows = [
            u32::from(0x40 | self.ihl()) << 24
                | u32::from(self.tos) << 16
                | u32::from(self.total_len),
            u32::from(self.identification) << 16 | u32::from(flags_frag),
            u32::from(self.ttl) << 24 | u32::from(self.protocol) << 16,
            self.src.to_bits(),
            self.dst.to_bits(),
        ];
        *out = [0; MAX_HEADER_LEN];
        for (slot, row) in out.chunks_exact_mut(4).zip(rows) {
            slot.copy_from_slice(&row.to_be_bytes());
        }
        out[MIN_HEADER_LEN..][..self.options.len()].copy_from_slice(&self.options);
        // The zeros past the header add nothing to the sum.
        let checksum = internet_checksum(out);
        out[10..12].copy_from_slice(&checksum.to_be_bytes());
        Ok(self.header_len())
    }

    /// Appends the wire representation to `buf`: `Ipv4Header::write`,
    /// then one copy.
    ///
    /// # Errors
    ///
    /// As `Ipv4Header::write`; `buf` is then left as it was.
    pub fn encode(&self, buf: &mut Vec<u8>) -> Result<(), NetError> {
        let mut header = [0; MAX_HEADER_LEN];
        let len = self.write(&mut header)?;
        buf.extend_from_slice(&header[..len]);
        Ok(())
    }

    /// Decodes a header from the front of `bytes`, returning the header and
    /// the payload slice (bounded by `total_len` when it is consistent).
    ///
    /// When `verify_checksum` is set, a non-verifying header checksum is an
    /// error; routers verify, test fixtures sometimes do not.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] for short buffers,
    /// [`NetError::InvalidField`] for a bad version or IHL, and
    /// [`NetError::BadChecksum`] if verification is requested and fails.
    pub fn decode(bytes: &[u8], verify_checksum: bool) -> Result<(Self, &[u8]), NetError> {
        let (header, payload) = split_header(bytes)?;
        if verify_checksum {
            let computed = internet_checksum(header);
            if computed != 0 {
                let found = u16::from_be_bytes([header[10], header[11]]);
                // Recompute what the checksum should have been.
                let mut copy = header.to_vec();
                copy[10] = 0;
                copy[11] = 0;
                return Err(NetError::BadChecksum {
                    layer: "ipv4",
                    found,
                    expected: internet_checksum(&copy),
                });
            }
        }
        Ok((Ipv4Header::from_wire(header), payload))
    }

    /// Reads the fields of a header [`split_header`] accepted.
    pub(crate) fn from_wire(header: &[u8]) -> Self {
        let flags_frag = u16::from_be_bytes([header[6], header[7]]);
        Ipv4Header {
            tos: header[1],
            total_len: u16::from_be_bytes([header[2], header[3]]),
            identification: u16::from_be_bytes([header[4], header[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            more_fragments: flags_frag & 0x2000 != 0,
            fragment_offset: flags_frag & 0x1fff,
            ttl: header[8],
            protocol: header[9],
            header_checksum: u16::from_be_bytes([header[10], header[11]]),
            src: Ipv4Addr::new(header[12], header[13], header[14], header[15]),
            dst: Ipv4Addr::new(header[16], header[17], header[18], header[19]),
            options: header[MIN_HEADER_LEN..].to_vec(),
        }
    }
}

/// Splits a datagram into its header (options included, as long as the
/// IHL says) and its payload, which ends at `total_len` when that lies
/// between the header's end and the end of `bytes`, and at the nearer of
/// the two otherwise.
///
/// # Errors
///
/// Returns [`NetError::Truncated`] for a datagram shorter than 20 bytes or
/// than its header, and [`NetError::InvalidField`] for a version other
/// than 4 or an IHL outside 5..=15 words.
pub(crate) fn split_header(bytes: &[u8]) -> Result<(&[u8], &[u8]), NetError> {
    if bytes.len() < MIN_HEADER_LEN {
        return Err(NetError::Truncated {
            layer: "ipv4",
            needed: MIN_HEADER_LEN,
            available: bytes.len(),
        });
    }
    let version = bytes[0] >> 4;
    if version != 4 {
        return Err(NetError::InvalidField {
            layer: "ipv4",
            field: "version",
            value: u64::from(version),
        });
    }
    let ihl = usize::from(bytes[0] & 0x0f);
    let header_len = ihl * 4;
    if !(MIN_HEADER_LEN..=MAX_HEADER_LEN).contains(&header_len) {
        return Err(NetError::InvalidField {
            layer: "ipv4",
            field: "ihl",
            value: ihl as u64,
        });
    }
    if bytes.len() < header_len {
        return Err(NetError::Truncated {
            layer: "ipv4",
            needed: header_len,
            available: bytes.len(),
        });
    }
    let total_len = usize::from(u16::from_be_bytes([bytes[2], bytes[3]]));
    let payload_end = total_len.clamp(header_len, bytes.len());
    Ok((&bytes[..header_len], &bytes[header_len..payload_end]))
}

fn padded_options_len(options: &[u8]) -> usize {
    options.len().div_ceil(4) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload_len: usize) -> Ipv4Header {
        Ipv4Header::for_tcp(
            Ipv4Addr::new(152, 2, 9, 41),
            Ipv4Addr::new(192, 0, 2, 80),
            payload_len,
        )
    }

    #[test]
    fn rfc1071_reference_vector() {
        // Example from RFC 1071 §3: {0x0001, 0xf203, 0xf4f5, 0xf6f7}.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x2ddf0 -> fold -> 0xddf2, complement -> 0x220d.
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_of_odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xff]), internet_checksum(&[0xff, 0x00]));
    }

    #[test]
    fn checksum_verifies_to_zero_over_encoded_header() {
        let hdr = sample(0);
        let mut buf = Vec::new();
        hdr.encode(&mut buf).unwrap();
        assert_eq!(internet_checksum(&buf), 0);
    }

    #[test]
    fn encode_decode_roundtrip_without_options() {
        let hdr = sample(13);
        let mut buf = Vec::new();
        hdr.encode(&mut buf).unwrap();
        buf.extend_from_slice(&[0xab; 13]);
        let (decoded, payload) = Ipv4Header::decode(&buf, true).unwrap();
        assert_eq!(decoded.src, hdr.src);
        assert_eq!(decoded.dst, hdr.dst);
        assert_eq!(decoded.protocol, PROTO_TCP);
        assert_eq!(decoded.total_len, hdr.total_len);
        assert_eq!(payload, &[0xab; 13]);
    }

    #[test]
    fn encode_decode_roundtrip_with_options() {
        let mut hdr = sample(0);
        hdr.options = vec![0x01, 0x01, 0x01]; // three NOPs, padded to 4
        hdr.total_len = (hdr.header_len()) as u16;
        let mut buf = Vec::new();
        hdr.encode(&mut buf).unwrap();
        assert_eq!(buf.len(), 24);
        let (decoded, _) = Ipv4Header::decode(&buf, true).unwrap();
        assert_eq!(decoded.ihl(), 6);
        assert_eq!(&decoded.options[..3], &[1, 1, 1]);
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let hdr = sample(0);
        let mut buf = Vec::new();
        hdr.encode(&mut buf).unwrap();
        buf[0] = 0x65; // version 6
        let err = Ipv4Header::decode(&buf, false).unwrap_err();
        assert!(matches!(
            err,
            NetError::InvalidField {
                field: "version",
                ..
            }
        ));
    }

    #[test]
    fn decode_rejects_short_ihl() {
        let hdr = sample(0);
        let mut buf = Vec::new();
        hdr.encode(&mut buf).unwrap();
        buf[0] = 0x44; // IHL 4 -> 16 bytes, below minimum
        let err = Ipv4Header::decode(&buf, false).unwrap_err();
        assert!(matches!(err, NetError::InvalidField { field: "ihl", .. }));
    }

    #[test]
    fn decode_detects_corruption_when_verifying() {
        let hdr = sample(0);
        let mut buf = Vec::new();
        hdr.encode(&mut buf).unwrap();
        buf[8] ^= 0xff; // corrupt TTL
        let err = Ipv4Header::decode(&buf, true).unwrap_err();
        assert!(matches!(err, NetError::BadChecksum { layer: "ipv4", .. }));
        // Without verification the corruption is let through.
        assert!(Ipv4Header::decode(&buf, false).is_ok());
    }

    #[test]
    fn fragment_flags_roundtrip() {
        let mut hdr = sample(0);
        hdr.dont_fragment = false;
        hdr.more_fragments = true;
        hdr.fragment_offset = 185;
        let mut buf = Vec::new();
        hdr.encode(&mut buf).unwrap();
        let (decoded, _) = Ipv4Header::decode(&buf, true).unwrap();
        assert!(!decoded.dont_fragment);
        assert!(decoded.more_fragments);
        assert_eq!(decoded.fragment_offset, 185);
    }

    #[test]
    fn fragment_offset_overflow_rejected() {
        let mut hdr = sample(0);
        hdr.fragment_offset = 0x2000;
        let err = hdr.encode(&mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            NetError::InvalidField {
                field: "fragment_offset",
                ..
            }
        ));
    }

    #[test]
    fn oversize_options_rejected() {
        let mut hdr = sample(0);
        hdr.options = vec![1; 41];
        let err = hdr.encode(&mut Vec::new()).unwrap_err();
        assert!(matches!(err, NetError::Oversize { .. }));
    }

    #[test]
    fn payload_clamped_by_total_len() {
        let mut hdr = sample(4);
        hdr.total_len = 24; // header + 4 bytes of payload
        let mut buf = Vec::new();
        hdr.encode(&mut buf).unwrap();
        buf.extend_from_slice(&[1, 2, 3, 4, 5, 6]); // 2 bytes of trailer junk
        let (_, payload) = Ipv4Header::decode(&buf, true).unwrap();
        assert_eq!(payload, &[1, 2, 3, 4]);
    }
}
