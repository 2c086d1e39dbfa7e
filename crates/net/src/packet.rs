//! Full-stack packets, owned and borrowed, and a builder for constructing
//! them.
//!
//! A [`Packet`] is the decoded, owned form of an Ethernet/IPv4/TCP byte
//! string and a [`PacketView`] the borrowed one (both accept exactly the
//! same frames); a [`PacketBuilder`] assembles the byte string from
//! high-level intent. The traffic generators build packets with the
//! builder, the router forwards the raw bytes, and the sniffers re-decode
//! them through [`classify`](mod@crate::classify) — so every packet the
//! detector ever sees has gone through a real encode/decode cycle.

use std::fmt;
use std::net::{Ipv4Addr, SocketAddrV4};

use crate::addr::MacAddr;
use crate::classify::{kind_of, SegmentKind};
use crate::error::NetError;
use crate::ethernet::{self, EtherType, EthernetHeader};
use crate::ipv4::{self, Ipv4Header};
use crate::tcp::{self, OptionArea, OptionWalk, TcpFlags, TcpHeader, TcpOption};

/// A fully decoded Ethernet + IPv4 + TCP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Link-layer header.
    pub ethernet: EthernetHeader,
    /// Network-layer header.
    pub ipv4: Ipv4Header,
    /// Transport-layer header, present when the payload protocol is TCP and
    /// the fragment offset is zero.
    pub tcp: Option<TcpHeader>,
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

impl Packet {
    /// Decodes a packet from raw frame bytes: [`PacketView::parse`], then
    /// an owned copy of every field.
    ///
    /// # Errors
    ///
    /// Returns an error if any present layer fails to decode.
    pub fn decode(bytes: &[u8]) -> Result<Self, NetError> {
        PacketView::parse(bytes).map(|view| view.to_packet())
    }

    /// Re-encodes the packet to wire bytes.
    ///
    /// # Errors
    ///
    /// Propagates layer encoding errors (oversize options and the like).
    pub fn encode(&self) -> Result<Vec<u8>, NetError> {
        let transport_len = self.tcp.as_ref().map_or(0, TcpHeader::header_len) + self.payload.len();
        let mut ip = self.ipv4.clone();
        ip.total_len = (ip.header_len() + transport_len) as u16;
        let mut buf = Vec::with_capacity(ethernet::HEADER_LEN + usize::from(ip.total_len));
        self.ethernet.encode(&mut buf);
        ip.encode(&mut buf)?;
        match &self.tcp {
            Some(tcp) => tcp.encode(self.ipv4.src, self.ipv4.dst, &self.payload, &mut buf)?,
            None => buf.extend_from_slice(&self.payload),
        }
        Ok(buf)
    }

    /// The source socket address, if the packet carries TCP.
    pub fn src_socket(&self) -> Option<SocketAddrV4> {
        self.tcp
            .as_ref()
            .map(|t| SocketAddrV4::new(self.ipv4.src, t.src_port))
    }

    /// The destination socket address, if the packet carries TCP.
    pub fn dst_socket(&self) -> Option<SocketAddrV4> {
        self.tcp
            .as_ref()
            .map(|t| SocketAddrV4::new(self.ipv4.dst, t.dst_port))
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.tcp {
            Some(tcp) => write!(
                f,
                "{}:{} > {}:{} [{}] seq={} len={}",
                self.ipv4.src,
                tcp.src_port,
                self.ipv4.dst,
                tcp.dst_port,
                tcp.flags,
                tcp.seq,
                self.payload.len()
            ),
            None => write!(
                f,
                "{} > {} proto={} len={}",
                self.ipv4.src,
                self.ipv4.dst,
                self.ipv4.protocol,
                self.payload.len()
            ),
        }
    }
}

/// A borrowed view of one decoded frame: the Ethernet header, the IPv4
/// header and, when the datagram carries one, the TCP header — read from
/// the frame's own bytes, with no allocation.
///
/// [`PacketView::parse`] is the workspace's one accept rule for a whole
/// frame, and [`Packet::decode`] is this view plus an owned copy. The
/// IPv4 header is decoded whatever the EtherType says. TCP is decoded only
/// for protocol 6 with zero fragment offset — mirroring the classifier's
/// precondition — inside the payload `total_len` bounds, and its option
/// area must walk cleanly. Checksums are not verified; use the layer
/// decoders directly for that.
///
/// ```
/// use syndog_net::packet::{PacketBuilder, PacketView};
/// use syndog_net::{SegmentKind, TcpFlags};
///
/// # fn main() -> Result<(), syndog_net::NetError> {
/// let bytes = PacketBuilder::tcp("10.0.0.7:1025".parse().unwrap(),
///                                "192.0.2.80:80".parse().unwrap(),
///                                TcpFlags::SYN)
///     .build()?;
/// let view = PacketView::parse(&bytes)?;
/// assert_eq!(view.kind(), SegmentKind::Syn);
/// assert_eq!(view.src_socket(), Some("10.0.0.7:1025".parse().unwrap()));
/// assert_eq!(view.dst().octets(), [192, 0, 2, 80]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// Link-layer header.
    pub ethernet: EthernetHeader,
    /// The IPv4 header, options included.
    ip_header: &'a [u8],
    /// The TCP header, options included, when the datagram carries one.
    tcp_header: Option<&'a [u8]>,
    /// Application payload (the whole IP payload when there is no TCP).
    payload: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Parses the frame's headers in place, in one pass over the bytes:
    /// plain bounds and field checks, with an error built only for a frame
    /// that fails them.
    ///
    /// # Errors
    ///
    /// Returns the error of the first layer decoder that rejects the frame
    /// (`EthernetHeader::decode`, then the IPv4 and TCP header rules of
    /// [`Ipv4Header::decode`] and [`TcpHeader::decode`]).
    #[inline]
    pub fn parse(bytes: &'a [u8]) -> Result<Self, NetError> {
        match Self::walk(bytes) {
            Some(view) => Ok(view),
            None => Err(rejection(bytes)),
        }
    }

    /// The accept rule: `Some` exactly when every layer decoder accepts.
    #[inline(always)]
    fn walk(bytes: &'a [u8]) -> Option<Self> {
        let (link, ip) = bytes.split_first_chunk::<{ ethernet::HEADER_LEN }>()?;
        if ip.len() < ipv4::MIN_HEADER_LEN || ip[0] >> 4 != 4 {
            return None;
        }
        let ip_header_len = usize::from(ip[0] & 0x0f) * 4;
        if ip_header_len < ipv4::MIN_HEADER_LEN || ip.len() < ip_header_len {
            return None;
        }
        let total_len = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
        let ip_payload = &ip[ip_header_len..total_len.clamp(ip_header_len, ip.len())];
        let ip_header = &ip[..ip_header_len];
        let ethernet = EthernetHeader::from_wire(link);
        let later_fragment = u16::from_be_bytes([ip[6], ip[7]]) & 0x1fff != 0;
        if ip[9] != ipv4::PROTO_TCP || later_fragment {
            return Some(PacketView {
                ethernet,
                ip_header,
                tcp_header: None,
                payload: ip_payload,
            });
        }
        if ip_payload.len() < tcp::MIN_HEADER_LEN {
            return None;
        }
        let tcp_header_len = usize::from(ip_payload[12] >> 4) * 4;
        if tcp_header_len < tcp::MIN_HEADER_LEN || ip_payload.len() < tcp_header_len {
            return None;
        }
        let (tcp_header, payload) = ip_payload.split_at(tcp_header_len);
        if !OptionWalk::new(&tcp_header[tcp::MIN_HEADER_LEN..]).all(|option| option.is_ok()) {
            return None;
        }
        Some(PacketView {
            ethernet,
            ip_header,
            tcp_header: Some(tcp_header),
            payload,
        })
    }

    /// The paper's classification of the frame: equal to
    /// [`classify`](crate::classify::classify) on every frame
    /// [`PacketView::parse`] accepts (each of which `classify` accepts
    /// too).
    #[inline]
    pub fn kind(&self) -> SegmentKind {
        match self.tcp_header {
            Some(header) if self.ethernet.ethertype == EtherType::Ipv4 => {
                kind_of(TcpFlags::from_bits_truncate(header[13]))
            }
            _ => SegmentKind::NonTcp,
        }
    }

    /// The IPv4 header bytes, options included.
    #[inline]
    pub fn ip_header(&self) -> &'a [u8] {
        self.ip_header
    }

    /// The TCP header bytes, options included, when the datagram carries
    /// TCP. Its option area walks cleanly.
    #[inline]
    pub fn tcp_header(&self) -> Option<&'a [u8]> {
        self.tcp_header
    }

    /// The IPv4 source address.
    #[inline]
    pub fn src(&self) -> Ipv4Addr {
        let h = self.ip_header;
        Ipv4Addr::new(h[12], h[13], h[14], h[15])
    }

    /// The IPv4 destination address.
    #[inline]
    pub fn dst(&self) -> Ipv4Addr {
        let h = self.ip_header;
        Ipv4Addr::new(h[16], h[17], h[18], h[19])
    }

    /// The TCP source and destination ports, if the frame carries TCP.
    #[inline]
    fn ports(&self) -> Option<(u16, u16)> {
        self.tcp_header.map(|h| {
            (
                u16::from_be_bytes([h[0], h[1]]),
                u16::from_be_bytes([h[2], h[3]]),
            )
        })
    }

    /// The source socket address, if the frame carries TCP.
    #[inline]
    pub fn src_socket(&self) -> Option<SocketAddrV4> {
        self.ports()
            .map(|(src_port, _)| SocketAddrV4::new(self.src(), src_port))
    }

    /// The destination socket address, if the frame carries TCP.
    #[inline]
    pub fn dst_socket(&self) -> Option<SocketAddrV4> {
        self.ports()
            .map(|(_, dst_port)| SocketAddrV4::new(self.dst(), dst_port))
    }

    /// An owned copy of every decoded field.
    pub(crate) fn to_packet(self) -> Packet {
        Packet {
            ethernet: self.ethernet,
            ipv4: Ipv4Header::from_wire(self.ip_header),
            tcp: self.tcp_header.map(|header| {
                // `parse` walked these options cleanly, so no error is left
                // for `map_while` to stop at.
                let options = OptionWalk::new(&header[tcp::MIN_HEADER_LEN..])
                    .map_while(Result::ok)
                    .map(|(kind, payload)| TcpOption::from_wire(kind, payload))
                    .collect();
                TcpHeader::from_wire(header, options)
            }),
            payload: self.payload.to_vec(),
        }
    }
}

/// The error of a frame [`PacketView::parse`] rejects: the layer decoders'
/// own splitters, re-run off the accept path.
#[cold]
#[inline(never)]
fn rejection(bytes: &[u8]) -> NetError {
    let layered = (|| {
        let (_, rest) = EthernetHeader::decode(bytes)?;
        let (ip_header, ip_payload) = ipv4::split_header(rest)?;
        let later_fragment = u16::from_be_bytes([ip_header[6], ip_header[7]]) & 0x1fff != 0;
        if ip_header[9] == ipv4::PROTO_TCP && !later_fragment {
            let (tcp_header, _) = tcp::split_header(ip_payload)?;
            for option in OptionWalk::new(&tcp_header[tcp::MIN_HEADER_LEN..]) {
                option?;
            }
        }
        Ok(())
    })();
    layered.expect_err("the header walk rejects only frames a layer decoder rejects")
}

/// Builder assembling Ethernet/IPv4/TCP packets into wire bytes.
///
/// ```
/// use syndog_net::packet::PacketBuilder;
/// use syndog_net::{MacAddr, TcpFlags};
///
/// # fn main() -> Result<(), syndog_net::NetError> {
/// let bytes = PacketBuilder::tcp("10.0.0.7:1025".parse().unwrap(),
///                                "192.0.2.80:80".parse().unwrap(),
///                                TcpFlags::SYN)
///     .src_mac(MacAddr::for_host(0, 7))
///     .seq(42)
///     .build()?;
/// let packet = syndog_net::Packet::decode(&bytes)?;
/// assert_eq!(packet.tcp.unwrap().seq, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: SocketAddrV4,
    dst: SocketAddrV4,
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    ttl: u8,
    window: u16,
    urgent: u16,
    identification: u16,
    dont_fragment: bool,
    tcp_options: Option<OptionArea>,
    payload: Vec<u8>,
    non_tcp_protocol: Option<u8>,
    fragment_offset: u16,
}

impl PacketBuilder {
    /// Starts a TCP packet with the given flags.
    pub fn tcp(src: SocketAddrV4, dst: SocketAddrV4, flags: TcpFlags) -> Self {
        PacketBuilder {
            src_mac: MacAddr::ZERO,
            dst_mac: MacAddr::ZERO,
            src,
            dst,
            flags,
            seq: 0,
            ack: 0,
            ttl: 64,
            window: 65535,
            urgent: 0,
            identification: 0,
            dont_fragment: true,
            tcp_options: None,
            payload: Vec::new(),
            non_tcp_protocol: None,
            fragment_offset: 0,
        }
    }

    /// Starts a non-TCP IPv4 packet of the given protocol number; the
    /// "payload" is carried opaque. Used to exercise the classifier's
    /// non-TCP path (e.g. Trinoo-style UDP floods).
    pub fn non_tcp(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8) -> Self {
        PacketBuilder {
            src_mac: MacAddr::ZERO,
            dst_mac: MacAddr::ZERO,
            src: SocketAddrV4::new(src, 0),
            dst: SocketAddrV4::new(dst, 0),
            flags: TcpFlags::EMPTY,
            seq: 0,
            ack: 0,
            ttl: 64,
            window: 65535,
            urgent: 0,
            identification: 0,
            dont_fragment: true,
            tcp_options: None,
            payload: Vec::new(),
            non_tcp_protocol: Some(protocol),
            fragment_offset: 0,
        }
    }

    /// Sets the source MAC address (defaults to all-zero).
    pub fn src_mac(mut self, mac: MacAddr) -> Self {
        self.src_mac = mac;
        self
    }

    /// Sets the destination MAC address (defaults to all-zero).
    pub fn dst_mac(mut self, mac: MacAddr) -> Self {
        self.dst_mac = mac;
        self
    }

    /// Sets the TCP sequence number.
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the TCP acknowledgment number.
    pub fn ack(mut self, ack: u32) -> Self {
        self.ack = ack;
        self
    }

    /// Sets the IPv4 TTL (defaults to 64).
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Replaces the TCP flags (keeping all eight raw bits).
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Sets the TCP receive window (defaults to 65535).
    pub fn window(mut self, window: u16) -> Self {
        self.window = window;
        self
    }

    /// Sets the TCP urgent pointer (defaults to 0).
    pub fn urgent(mut self, urgent: u16) -> Self {
        self.urgent = urgent;
        self
    }

    /// Sets the IPv4 identification field (defaults to 0).
    pub fn identification(mut self, id: u16) -> Self {
        self.identification = id;
        self
    }

    /// Sets or clears the IPv4 don't-fragment flag (defaults to set).
    pub fn dont_fragment(mut self, df: bool) -> Self {
        self.dont_fragment = df;
        self
    }

    /// Replaces the TCP options: a list (`[TcpOption::Mss(1400)]`) or an
    /// [`OptionArea`] encoded in place. When not called, a pure SYN or
    /// SYN/ACK carries the default `MSS(1460)` and other segments carry no
    /// options; an explicit empty list suppresses even the default.
    pub fn tcp_options(mut self, options: impl Into<OptionArea>) -> Self {
        self.tcp_options = Some(options.into());
        self
    }

    /// Sets the application payload.
    pub fn payload(mut self, payload: impl Into<Vec<u8>>) -> Self {
        self.payload = payload.into();
        self
    }

    /// Marks the packet as a later fragment (non-zero fragment offset, in
    /// 8-byte units). Such a packet cannot be classified as a TCP segment.
    pub fn fragment_offset(mut self, offset: u16) -> Self {
        self.fragment_offset = offset;
        self
    }

    /// Encodes the packet to wire bytes: [`PacketBuilder::build_into`] on
    /// an empty buffer.
    ///
    /// # Errors
    ///
    /// Propagates layer encoding errors.
    pub fn build(&self) -> Result<Vec<u8>, NetError> {
        let mut buf = Vec::new();
        self.build_into(&mut buf)?;
        Ok(buf)
    }

    /// The frame encoder: appends the packet's wire bytes to `buf`, each
    /// header written in place (the TCP checksum over the bytes just
    /// appended), with no allocation of its own. On an error `buf` may hold
    /// a partial frame.
    ///
    /// # Errors
    ///
    /// Propagates layer encoding errors.
    pub fn build_into(&self, buf: &mut Vec<u8>) -> Result<(), NetError> {
        // A later fragment carries a slice of the segment, not a header;
        // it and a non-TCP datagram carry the payload raw.
        let tcp_options =
            (self.non_tcp_protocol.is_none() && self.fragment_offset == 0).then(|| {
                match self.tcp_options {
                    Some(options) => options,
                    None if self.flags.is_pure_syn() || self.flags.is_syn_ack() => {
                        OptionArea::from([TcpOption::Mss(1460)])
                    }
                    None => OptionArea::default(),
                }
            });
        let header_len =
            tcp_options.map_or(0, |options| tcp::MIN_HEADER_LEN + options.padded_len());
        let mut ip = Ipv4Header::for_tcp(
            *self.src.ip(),
            *self.dst.ip(),
            header_len + self.payload.len(),
        );
        ip.protocol = self.non_tcp_protocol.unwrap_or(ipv4::PROTO_TCP);
        ip.ttl = self.ttl;
        ip.identification = self.identification;
        ip.dont_fragment = self.dont_fragment && self.fragment_offset == 0;
        ip.fragment_offset = self.fragment_offset;
        EthernetHeader {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EtherType::Ipv4,
        }
        .encode(buf);
        ip.encode(buf)?;
        let Some(options) = tcp_options else {
            buf.extend_from_slice(&self.payload);
            return Ok(());
        };
        tcp::FixedFields {
            src_port: self.src.port(),
            dst_port: self.dst.port(),
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            urgent: self.urgent,
        }
        .encode(&options, *self.src.ip(), *self.dst.ip(), &self.payload, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> SocketAddrV4 {
        s.parse().unwrap()
    }

    #[test]
    fn build_decode_roundtrip_syn() {
        let bytes = PacketBuilder::tcp(addr("10.0.0.7:1025"), addr("192.0.2.80:80"), TcpFlags::SYN)
            .src_mac(MacAddr::for_host(0, 7))
            .seq(1234)
            .build()
            .unwrap();
        let packet = Packet::decode(&bytes).unwrap();
        let tcp = packet.tcp.as_ref().unwrap();
        assert!(tcp.flags.is_pure_syn());
        assert_eq!(tcp.seq, 1234);
        assert_eq!(packet.src_socket(), Some(addr("10.0.0.7:1025")));
        assert_eq!(packet.dst_socket(), Some(addr("192.0.2.80:80")));
        assert_eq!(packet.ethernet.src, MacAddr::for_host(0, 7));
    }

    #[test]
    fn reencode_matches_original_bytes() {
        let bytes = PacketBuilder::tcp(addr("1.2.3.4:5"), addr("6.7.8.9:10"), TcpFlags::ACK)
            .seq(7)
            .ack(8)
            .payload(&b"hello world"[..])
            .build()
            .unwrap();
        let packet = Packet::decode(&bytes).unwrap();
        assert_eq!(packet.encode().unwrap(), bytes);
    }

    #[test]
    fn non_tcp_packet_has_no_tcp_header() {
        let bytes = PacketBuilder::non_tcp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            ipv4::PROTO_UDP,
        )
        .payload(&[1, 2, 3][..])
        .build()
        .unwrap();
        let packet = Packet::decode(&bytes).unwrap();
        assert!(packet.tcp.is_none());
        assert_eq!(packet.payload, vec![1, 2, 3]);
        assert_eq!(packet.src_socket(), None);
    }

    #[test]
    fn later_fragment_skips_tcp_decode() {
        let bytes = PacketBuilder::tcp(addr("1.1.1.1:1"), addr("2.2.2.2:2"), TcpFlags::SYN)
            .fragment_offset(10)
            .payload(vec![0u8; 32])
            .build()
            .unwrap();
        let packet = Packet::decode(&bytes).unwrap();
        assert!(packet.tcp.is_none());
        assert_eq!(packet.ipv4.fragment_offset, 10);
    }

    #[test]
    fn display_includes_flags_and_endpoints() {
        let bytes = PacketBuilder::tcp(
            addr("9.9.9.9:80"),
            addr("8.8.8.8:1024"),
            TcpFlags::SYN | TcpFlags::ACK,
        )
        .build()
        .unwrap();
        let text = Packet::decode(&bytes).unwrap().to_string();
        assert!(text.contains("SYN|ACK"), "{text}");
        assert!(text.contains("9.9.9.9:80"), "{text}");
    }

    #[test]
    fn payload_survives_roundtrip() {
        let body: Vec<u8> = (0..=255).collect();
        let bytes = PacketBuilder::tcp(
            addr("1.2.3.4:5"),
            addr("5.4.3.2:1"),
            TcpFlags::PSH | TcpFlags::ACK,
        )
        .payload(body.clone())
        .build()
        .unwrap();
        let packet = Packet::decode(&bytes).unwrap();
        assert_eq!(packet.payload, body);
    }
}
