//! TCP header encoding, decoding, flags and the pseudo-header checksum.
//!
//! SYN-dog's entire observable is the six TCP flag bits: the outbound
//! sniffer counts segments with `SYN` set and `ACK` clear, the inbound
//! sniffer counts segments with both `SYN` and `ACK` set. [`TcpFlags`]
//! models those bits; [`TcpHeader`] is the decoded header with its
//! options, and `FixedFields::write` the one header writer, with the IPv4
//! pseudo-header checksum of RFC 793.

use std::fmt;
use std::net::Ipv4Addr;

use crate::error::NetError;
use crate::ipv4::{checksum_accumulate, checksum_finish, PROTO_TCP};

/// Minimum (option-less) TCP header length in bytes.
pub const MIN_HEADER_LEN: usize = 20;

/// Maximum TCP header length in bytes (data offset = 15).
pub const MAX_HEADER_LEN: usize = 60;

/// The six TCP flag bits (RFC 793), plus helpers for the combinations the
/// paper's classifier cares about.
///
/// ```
/// use syndog_net::TcpFlags;
/// let synack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(synack.is_syn_ack());
/// assert!(!synack.is_pure_syn());
/// assert_eq!(synack.to_string(), "SYN|ACK");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN — sender has finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN — synchronize sequence numbers (connection request).
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST — reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH — push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK — acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG — urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x20);
    /// ECE — ECN echo (RFC 3168). Outside the classic six bits: the
    /// classifier ignores it, but the fingerprinter records it as a quirk.
    pub const ECE: TcpFlags = TcpFlags(0x40);
    /// CWR — congestion window reduced (RFC 3168). See [`TcpFlags::ECE`].
    pub const CWR: TcpFlags = TcpFlags(0x80);

    /// Builds flags from the low six bits of `bits`.
    pub const fn from_bits_truncate(bits: u8) -> Self {
        TcpFlags(bits & 0x3f)
    }

    /// Builds flags from all eight bits, keeping the ECN bits (ECE/CWR).
    /// Classification only looks at the classic six; use this to craft or
    /// inspect frames where the ECN bits matter (fingerprint quirks).
    pub const fn from_raw_bits(bits: u8) -> Self {
        TcpFlags(bits)
    }

    /// The raw bits as carried in the header.
    pub const fn bits(&self) -> u8 {
        self.0
    }

    /// Returns `true` if every flag in `other` is set in `self`.
    pub const fn contains(&self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if any flag in `other` is set in `self`.
    pub const fn intersects(&self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// A connection request: SYN set, ACK (and RST/FIN) clear.
    pub const fn is_pure_syn(&self) -> bool {
        self.contains(TcpFlags::SYN)
            && !self.intersects(TcpFlags(
                TcpFlags::ACK.0 | TcpFlags::RST.0 | TcpFlags::FIN.0,
            ))
    }

    /// The server half of the handshake: both SYN and ACK set.
    pub const fn is_syn_ack(&self) -> bool {
        self.contains(TcpFlags(TcpFlags::SYN.0 | TcpFlags::ACK.0))
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;

    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for TcpFlags {
    type Output = TcpFlags;

    fn bitand(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 & rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            return write!(f, "(none)");
        }
        let names = [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::URG, "URG"),
            (TcpFlags::ECE, "ECE"),
            (TcpFlags::CWR, "CWR"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// A TCP option as carried in the variable-length option area.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TcpOption {
    /// End of option list (kind 0).
    EndOfOptions,
    /// No-operation padding (kind 1).
    Nop,
    /// Maximum segment size (kind 2).
    Mss(u16),
    /// Window scale shift count (kind 3).
    WindowScale(u8),
    /// SACK permitted (kind 4).
    SackPermitted,
    /// Timestamps: TSval, TSecr (kind 8).
    Timestamps(u32, u32),
    /// Any other option, kept raw: (kind, payload).
    Unknown(u8, Vec<u8>),
}

impl TcpOption {
    fn encode(&self, area: &mut OptionArea) {
        match self {
            TcpOption::EndOfOptions => area.put(&[0]),
            TcpOption::Nop => area.put(&[1]),
            TcpOption::Mss(mss) => {
                let [hi, lo] = mss.to_be_bytes();
                area.put(&[2, 4, hi, lo]);
            }
            TcpOption::WindowScale(shift) => area.put(&[3, 3, *shift]),
            TcpOption::SackPermitted => area.put(&[4, 2]),
            TcpOption::Timestamps(tsval, tsecr) => {
                area.put(&[8, 10]);
                area.put(&tsval.to_be_bytes());
                area.put(&tsecr.to_be_bytes());
            }
            TcpOption::Unknown(kind, payload) => area.push_raw(*kind, payload),
        }
    }

    /// Builds the option for one walked `(kind, payload)` pair.
    pub(crate) fn from_wire(kind: u8, payload: &[u8]) -> TcpOption {
        match (kind, payload.len()) {
            (0, _) => TcpOption::EndOfOptions,
            (1, _) => TcpOption::Nop,
            (2, 2) => TcpOption::Mss(u16::from_be_bytes([payload[0], payload[1]])),
            (3, 1) => TcpOption::WindowScale(payload[0]),
            (4, 0) => TcpOption::SackPermitted,
            (8, 8) => TcpOption::Timestamps(
                u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]),
                u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]),
            ),
            _ => TcpOption::Unknown(kind, payload.to_vec()),
        }
    }

    /// Parses the option list from the raw option area.
    fn parse_all(bytes: &[u8]) -> Result<Vec<TcpOption>, NetError> {
        OptionWalk::new(bytes)
            .map(|option| option.map(|(kind, payload)| TcpOption::from_wire(kind, payload)))
            .collect()
    }
}

/// A borrowed walk over a raw TCP option area, yielding each option's
/// kind and payload bytes in wire order without allocating — the one
/// option rule [`TcpHeader::decode`] and
/// [`PacketView::parse`](crate::packet::PacketView::parse) share.
///
/// End-of-options ends the walk. A missing or impossible length byte
/// yields one error and ends it.
#[derive(Debug, Clone)]
pub(crate) struct OptionWalk<'a> {
    rest: &'a [u8],
}

impl<'a> OptionWalk<'a> {
    pub(crate) fn new(options: &'a [u8]) -> Self {
        OptionWalk { rest: options }
    }
}

impl<'a> Iterator for OptionWalk<'a> {
    type Item = Result<(u8, &'a [u8]), NetError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.rest;
        let (&kind, rest) = bytes.split_first()?;
        if kind <= 1 {
            self.rest = if kind == 0 { &[] } else { rest };
            return Some(Ok((kind, &[])));
        }
        self.rest = &[];
        let Some(&len) = rest.first() else {
            return Some(Err(NetError::Truncated {
                layer: "tcp options",
                needed: 2,
                available: 1,
            }));
        };
        let len = usize::from(len);
        if len < 2 || len > bytes.len() {
            return Some(Err(NetError::InvalidField {
                layer: "tcp options",
                field: "length",
                value: len as u64,
            }));
        }
        self.rest = &bytes[len..];
        Some(Ok((kind, &bytes[2..len])))
    }
}

/// Longest option area a TCP header has room for, in bytes.
pub(crate) const MAX_OPTIONS_LEN: usize = MAX_HEADER_LEN - MIN_HEADER_LEN;

/// A TCP option area encoded in place, as a header carries it, before
/// padding: at most 40 bytes, held inline with no allocation, and zero
/// past its options. A list too long to fit keeps only its length, for
/// the encoder to reject.
///
/// ```
/// use syndog_net::{OptionArea, TcpOption};
///
/// let mut area = OptionArea::from([TcpOption::Mss(1460), TcpOption::Nop]);
/// area.push_raw(253, &[0, 0]);
/// let listed = [TcpOption::Mss(1460), TcpOption::Nop, TcpOption::Unknown(253, vec![0, 0])];
/// assert_eq!(area, OptionArea::from(listed));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptionArea {
    bytes: [u8; MAX_OPTIONS_LEN],
    len: usize,
}

impl OptionArea {
    /// No options.
    pub(crate) const NONE: OptionArea = OptionArea {
        bytes: [0; MAX_OPTIONS_LEN],
        len: 0,
    };

    /// What a SYN or SYN/ACK built with no options carries:
    /// `TcpOption::Mss(1460)`, encoded.
    pub(crate) const DEFAULT_SYN: OptionArea = {
        let [hi, lo] = 1460u16.to_be_bytes();
        let mut bytes = [0; MAX_OPTIONS_LEN];
        (bytes[0], bytes[1], bytes[2], bytes[3]) = (2, 4, hi, lo);
        OptionArea { bytes, len: 4 }
    };

    /// Appends one option's wire bytes.
    pub fn push(&mut self, option: &TcpOption) {
        option.encode(self);
    }

    /// Appends an option of any `kind` carrying `payload`: the bytes
    /// `TcpOption::Unknown(kind, payload)` encodes to, with no `Vec`.
    pub fn push_raw(&mut self, kind: u8, payload: &[u8]) {
        self.put(&[kind, (2 + payload.len()) as u8]);
        self.put(payload);
    }

    /// The encoded length padded to whole 32-bit words.
    pub(crate) fn padded_len(&self) -> usize {
        self.len.div_ceil(4) * 4
    }

    fn put(&mut self, bytes: &[u8]) {
        if let Some(slot) = self.bytes.get_mut(self.len..self.len + bytes.len()) {
            slot.copy_from_slice(bytes);
        }
        self.len += bytes.len();
    }
}

impl Default for OptionArea {
    /// No options.
    fn default() -> Self {
        OptionArea::NONE
    }
}

impl From<&[TcpOption]> for OptionArea {
    fn from(options: &[TcpOption]) -> Self {
        let mut area = OptionArea::default();
        for option in options {
            area.push(option);
        }
        area
    }
}

impl<const N: usize> From<[TcpOption; N]> for OptionArea {
    fn from(options: [TcpOption; N]) -> Self {
        OptionArea::from(options.as_slice())
    }
}

/// A decoded TCP header.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (significant only when ACK is set).
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum as carried on the wire (0 before encoding).
    pub checksum: u16,
    /// Urgent pointer (significant only when URG is set).
    pub urgent: u16,
    /// Options, in order.
    pub options: Vec<TcpOption>,
}

impl TcpHeader {
    /// The fields the one segment writer takes besides the options.
    pub(crate) fn fixed_fields(&self) -> FixedFields {
        FixedFields {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            urgent: self.urgent,
        }
    }

    /// Decodes a header from the front of `segment`, returning the header
    /// and the payload slice.
    ///
    /// When `verify` carries the IPv4 addresses, the pseudo-header checksum
    /// is validated over the whole `segment`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`], [`NetError::InvalidField`] (bad data
    /// offset or malformed option), or [`NetError::BadChecksum`].
    pub fn decode(
        segment: &[u8],
        verify: Option<(Ipv4Addr, Ipv4Addr)>,
    ) -> Result<(Self, &[u8]), NetError> {
        let (header, payload) = split_header(segment)?;
        if let Some((src, dst)) = verify {
            let computed = pseudo_header_checksum(src, dst, segment);
            if computed != 0 {
                let found = u16::from_be_bytes([segment[16], segment[17]]);
                let mut copy = segment.to_vec();
                copy[16] = 0;
                copy[17] = 0;
                return Err(NetError::BadChecksum {
                    layer: "tcp",
                    found,
                    expected: pseudo_header_checksum(src, dst, &copy),
                });
            }
        }
        let options = TcpOption::parse_all(&header[MIN_HEADER_LEN..])?;
        Ok((TcpHeader::from_wire(header, options), payload))
    }

    /// Reads the fixed fields of a header [`split_header`] accepted.
    pub(crate) fn from_wire(header: &[u8], options: Vec<TcpOption>) -> Self {
        TcpHeader {
            src_port: u16::from_be_bytes([header[0], header[1]]),
            dst_port: u16::from_be_bytes([header[2], header[3]]),
            seq: u32::from_be_bytes([header[4], header[5], header[6], header[7]]),
            ack: u32::from_be_bytes([header[8], header[9], header[10], header[11]]),
            flags: TcpFlags::from_bits_truncate(header[13]),
            window: u16::from_be_bytes([header[14], header[15]]),
            checksum: u16::from_be_bytes([header[16], header[17]]),
            urgent: u16::from_be_bytes([header[18], header[19]]),
            options,
        }
    }
}

/// The fields of a TCP header other than its checksum, offset and options:
/// what [`TcpHeader::fixed_fields`] and the packet builder hand the one
/// segment header writer.
pub(crate) struct FixedFields {
    pub(crate) src_port: u16,
    pub(crate) dst_port: u16,
    pub(crate) seq: u32,
    pub(crate) ack: u32,
    pub(crate) flags: TcpFlags,
    pub(crate) window: u16,
    pub(crate) urgent: u16,
}

impl FixedFields {
    /// The one TCP header writer: fills `out` with these fields, `options`
    /// and zeros, the pseudo-header checksum over that header and the
    /// `payload` that follows it included, and returns the header length
    /// (the options padded to whole words).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Oversize`] if the options exceed 40 bytes.
    #[inline]
    pub(crate) fn write(
        &self,
        options: &OptionArea,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: &[u8],
        out: &mut [u8; MAX_HEADER_LEN],
    ) -> Result<usize, NetError> {
        let header_len = MIN_HEADER_LEN + options.padded_len();
        if options.len > MAX_OPTIONS_LEN {
            return Err(NetError::Oversize {
                layer: "tcp options",
                limit: MAX_OPTIONS_LEN,
                requested: header_len - MIN_HEADER_LEN,
            });
        }
        // RFC 793's five 32-bit rows; the checksum is zero while it is
        // computed.
        let rows = [
            u32::from(self.src_port) << 16 | u32::from(self.dst_port),
            self.seq,
            self.ack,
            (header_len as u32 / 4) << 28
                | u32::from(self.flags.bits()) << 16
                | u32::from(self.window),
            u32::from(self.urgent),
        ];
        for (slot, row) in out.chunks_exact_mut(4).zip(rows) {
            slot.copy_from_slice(&row.to_be_bytes());
        }
        // The area is zero past its options, so this pads them too, and
        // the checksum may run over all 60 bytes.
        out[MIN_HEADER_LEN..].copy_from_slice(&options.bytes);
        let pseudo = pseudo_header_sum(src, dst, header_len + payload.len());
        let header = checksum_accumulate(pseudo, out);
        let checksum = checksum_finish(checksum_accumulate(header, payload));
        out[16..18].copy_from_slice(&checksum.to_be_bytes());
        Ok(header_len)
    }
}

/// Splits a segment into its header (options included, as long as the
/// data offset says) and its payload.
///
/// # Errors
///
/// Returns [`NetError::Truncated`] for a segment shorter than 20 bytes or
/// than its header, and [`NetError::InvalidField`] for a data offset
/// outside 5..=15 words.
pub(crate) fn split_header(segment: &[u8]) -> Result<(&[u8], &[u8]), NetError> {
    if segment.len() < MIN_HEADER_LEN {
        return Err(NetError::Truncated {
            layer: "tcp",
            needed: MIN_HEADER_LEN,
            available: segment.len(),
        });
    }
    let data_offset = usize::from(segment[12] >> 4);
    let header_len = data_offset * 4;
    if !(MIN_HEADER_LEN..=MAX_HEADER_LEN).contains(&header_len) {
        return Err(NetError::InvalidField {
            layer: "tcp",
            field: "data_offset",
            value: data_offset as u64,
        });
    }
    if segment.len() < header_len {
        return Err(NetError::Truncated {
            layer: "tcp",
            needed: header_len,
            available: segment.len(),
        });
    }
    Ok(segment.split_at(header_len))
}

/// Computes the RFC 793 checksum over the IPv4 pseudo-header and `segment`
/// (TCP header + payload). The checksum field inside `segment` must be zero
/// when computing, or left in place when verifying (result 0 = valid).
pub fn pseudo_header_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
    checksum_finish(checksum_accumulate(
        pseudo_header_sum(src, dst, segment.len()),
        segment,
    ))
}

/// The ones'-complement accumulator of the IPv4 pseudo-header for a
/// segment of `segment_len` bytes: the two addresses, then the zero byte
/// and protocol number with the 16-bit length, as three 32-bit words.
#[inline]
fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, segment_len: usize) -> u64 {
    let proto_len = u32::from(PROTO_TCP) << 16 | u32::from(segment_len as u16);
    u64::from(src.to_bits()) + u64::from(dst.to_bits()) + u64::from(proto_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(152, 2, 9, 41);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 80);

    /// A connection-request (pure SYN) header.
    fn syn(src_port: u16, dst_port: u16, seq: u32) -> TcpHeader {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            checksum: 0,
            urgent: 0,
            options: vec![TcpOption::Mss(1460)],
        }
    }

    /// A bare ACK header.
    fn ack(src_port: u16, dst_port: u16, seq: u32, ack: u32) -> TcpHeader {
        TcpHeader {
            ack,
            flags: TcpFlags::ACK,
            options: Vec::new(),
            ..syn(src_port, dst_port, seq)
        }
    }

    /// A segment as the one header writer lays it out: header, then
    /// `payload`.
    fn segment(hdr: &TcpHeader, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut header = [0; MAX_HEADER_LEN];
        let options = OptionArea::from(hdr.options.as_slice());
        let len = hdr
            .fixed_fields()
            .write(&options, src, dst, payload, &mut header)
            .unwrap();
        [&header[..len], payload].concat()
    }

    #[test]
    fn flag_combinations() {
        assert!(TcpFlags::SYN.is_pure_syn());
        assert!(!(TcpFlags::SYN | TcpFlags::ACK).is_pure_syn());
        assert!(!(TcpFlags::SYN | TcpFlags::RST).is_pure_syn());
        assert!(!(TcpFlags::SYN | TcpFlags::FIN).is_pure_syn());
        assert!((TcpFlags::SYN | TcpFlags::ACK).is_syn_ack());
        assert!((TcpFlags::SYN | TcpFlags::ACK | TcpFlags::PSH).is_syn_ack());
        assert!(!TcpFlags::ACK.is_syn_ack());
        assert!(!TcpFlags::EMPTY.is_pure_syn());
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::EMPTY.to_string(), "(none)");
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::RST.to_string(), "RST");
    }

    #[test]
    fn from_bits_truncates_reserved_bits() {
        let flags = TcpFlags::from_bits_truncate(0xff);
        assert_eq!(flags.bits(), 0x3f);
    }

    #[test]
    fn from_raw_bits_keeps_ecn_bits() {
        let flags = TcpFlags::from_raw_bits(0xc2);
        assert_eq!(flags.bits(), 0xc2);
        assert!(flags.is_pure_syn(), "ECN bits do not disqualify a pure SYN");
        assert!(flags.contains(TcpFlags::ECE | TcpFlags::CWR));
        assert_eq!(flags.to_string(), "SYN|ECE|CWR");
    }

    #[test]
    fn syn_constructor_shape() {
        let syn = syn(1025, 80, 7);
        assert!(syn.flags.is_pure_syn());
        let buf = segment(&syn, SRC, DST, &[]);
        assert_eq!(buf.len(), 24); // MSS option padded to 4 bytes
        assert_eq!(buf[12] >> 4, 6, "data offset in words");
    }

    #[test]
    fn encode_decode_roundtrip_with_payload_and_checksum() {
        let hdr = syn(1025, 80, 0xdeadbeef);
        let buf = segment(&hdr, SRC, DST, b"hello");
        let (decoded, payload) = TcpHeader::decode(&buf, Some((SRC, DST))).unwrap();
        assert_eq!(decoded.src_port, 1025);
        assert_eq!(decoded.dst_port, 80);
        assert_eq!(decoded.seq, 0xdeadbeef);
        assert_eq!(decoded.flags, TcpFlags::SYN);
        assert_eq!(decoded.options, vec![TcpOption::Mss(1460)]);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let hdr = ack(1, 2, 3, 4);
        let mut buf = segment(&hdr, SRC, DST, b"data!");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = TcpHeader::decode(&buf, Some((SRC, DST))).unwrap_err();
        assert!(matches!(err, NetError::BadChecksum { layer: "tcp", .. }));
    }

    #[test]
    fn checksum_depends_on_pseudo_header_addresses() {
        let hdr = ack(1, 2, 3, 4);
        let buf = segment(&hdr, SRC, DST, &[]);
        // Note: swapping src and dst does NOT change the checksum (ones'-
        // complement addition is commutative), but substituting a different
        // address must fail verification.
        assert!(TcpHeader::decode(&buf, Some((DST, SRC))).is_ok());
        let other = Ipv4Addr::new(8, 8, 8, 8);
        let err = TcpHeader::decode(&buf, Some((other, DST))).unwrap_err();
        assert!(matches!(err, NetError::BadChecksum { .. }));
    }

    #[test]
    fn option_roundtrip_all_kinds() {
        let mut hdr = syn(1, 2, 3);
        hdr.options = vec![
            TcpOption::Mss(1400),
            TcpOption::Nop,
            TcpOption::WindowScale(7),
            TcpOption::SackPermitted,
            TcpOption::Timestamps(0x01020304, 0x0a0b0c0d),
            TcpOption::Unknown(253, vec![9, 9]),
        ];
        let buf = segment(&hdr, SRC, DST, &[]);
        let (decoded, _) = TcpHeader::decode(&buf, Some((SRC, DST))).unwrap();
        // Trailing EOO/NOP padding may be appended; compare the prefix.
        assert_eq!(&decoded.options[..hdr.options.len()], &hdr.options[..]);
    }

    #[test]
    fn malformed_option_length_rejected() {
        let hdr = ack(1, 2, 3, 4);
        let mut buf = segment(&hdr, SRC, DST, &[]);
        // Inflate data offset to 6 words and claim an option with bad length.
        buf[12] = 6 << 4;
        buf.splice(20..20, [2u8, 1, 0, 0]); // MSS with length 1 (< 2)
        let err = TcpHeader::decode(&buf, None).unwrap_err();
        assert!(matches!(
            err,
            NetError::InvalidField {
                layer: "tcp options",
                ..
            }
        ));
    }

    #[test]
    fn truncated_segment_rejected() {
        let err = TcpHeader::decode(&[0u8; 10], None).unwrap_err();
        assert!(matches!(err, NetError::Truncated { layer: "tcp", .. }));
    }

    #[test]
    fn data_offset_below_minimum_rejected() {
        let hdr = ack(1, 2, 3, 4);
        let mut buf = segment(&hdr, SRC, DST, &[]);
        buf[12] = 4 << 4;
        let err = TcpHeader::decode(&buf, None).unwrap_err();
        assert!(matches!(
            err,
            NetError::InvalidField {
                field: "data_offset",
                ..
            }
        ));
    }
}
