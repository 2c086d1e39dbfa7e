//! Wire-format substrate for the SYN-dog reproduction.
//!
//! This crate implements, from scratch, everything SYN-dog needs to see on
//! the wire at a leaf router:
//!
//! - [`ethernet`] — Ethernet II frame header encode/decode,
//! - [`ipv4`] — IPv4 header with options and Internet checksum,
//! - [`tcp`] — TCP header with flags, options and pseudo-header checksum,
//! - [`packet`] — an owned, full-stack packet type, its borrowed view and
//!   a builder,
//! - [`mod@classify`] — the paper's packet-classification algorithm (§2) that
//!   distinguishes TCP control segments (SYN, SYN/ACK, FIN, RST, …) from data,
//! - [`frag`] — IPv4 fragmentation/reassembly and the RFC 1858
//!   tiny-fragment filter that keeps the classifier sound under evasive
//!   fragmentation,
//! - [`pcap`] — a reader/writer for the classic libpcap capture file format,
//!   so the sniffer can run over real capture files; the reader lends each
//!   record in place from a block buffer,
//! - [`addr`] — MAC addresses, IPv4 prefixes and the invalid/spoofed source
//!   address test the paper relies on ("the spoofed source address must be an
//!   invalid IP address so that it can't be reachable from the victim").
//!
//! # Example
//!
//! ```
//! use syndog_net::packet::PacketBuilder;
//! use syndog_net::classify::{classify, SegmentKind};
//! use syndog_net::TcpFlags;
//!
//! # fn main() -> Result<(), syndog_net::NetError> {
//! let bytes = PacketBuilder::tcp("10.0.0.7:1025".parse().unwrap(),
//!                                "192.0.2.80:80".parse().unwrap(),
//!                                TcpFlags::SYN)
//!     .build()?;
//! assert_eq!(classify(&bytes)?, SegmentKind::Syn);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod classify;
pub mod error;
pub mod ethernet;
pub mod frag;
pub mod ipv4;
pub mod packet;
pub mod pcap;
pub mod tcp;

pub use addr::{Ipv4Net, MacAddr};
pub use classify::{classify, SegmentKind};
pub use error::NetError;
pub use ethernet::EtherType;
pub use ipv4::Ipv4Header;
pub use packet::{Packet, PacketBuilder, PacketView};
pub use tcp::{TcpFlags, TcpHeader};
