//! Link-layer addresses, IPv4 prefixes, and the invalid-source-address test.
//!
//! SYN flooding relies on *spoofed* source addresses that are unreachable
//! from the victim (§1 of the paper): a reachable host would answer the
//! victim's SYN/ACK with a RST and tear the half-open connection down.
//! [`Ipv4Net`] models the stub network's prefix, and
//! [`is_unroutable_source`] implements the bogon test used by the attack
//! generators and the localization logic.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A 48-bit IEEE 802 MAC address.
///
/// The paper's §4.2.3 notes that once SYN-dog raises an alarm, the leaf
/// router can check "the MAC addresses of IP packets whose source addresses
/// are spoofed" to pinpoint the offending host; MAC addresses are therefore
/// first-class in this reproduction.
///
/// ```
/// use syndog_net::MacAddr;
/// let mac: MacAddr = "02:00:5e:10:00:01".parse().unwrap();
/// assert_eq!(mac.to_string(), "02:00:5e:10:00:01");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, conventionally "unspecified".
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from the six octets in transmission order.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Returns the six octets in transmission order.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Derives a deterministic, locally-administered unicast MAC for host
    /// number `host` in stub network `net`.
    ///
    /// Simulated hosts need stable MAC addresses so that per-MAC accounting
    /// in the localization stage is reproducible across runs.
    pub fn for_host(net: u16, host: u32) -> Self {
        let n = net.to_be_bytes();
        let h = host.to_be_bytes();
        // 0x02 prefix: locally administered, unicast.
        MacAddr([0x02, n[0], n[1], h[1], h[2], h[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error returned when parsing a [`MacAddr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError {
    input: String,
}

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid mac address syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseMacError {
            input: s.to_owned(),
        };
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in octets.iter_mut() {
            let part = parts.next().ok_or_else(err)?;
            if part.len() != 2 {
                return Err(err());
            }
            *octet = u8::from_str_radix(part, 16).map_err(|_| err())?;
        }
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(MacAddr(octets))
    }
}

/// An IPv4 network prefix in CIDR form, e.g. `152.2.0.0/16`.
///
/// Used to model a stub network's address space: the outbound sniffer knows
/// which sources are *inside* the stub network, and the attack generators
/// know which addresses are plausible spoof targets.
///
/// ```
/// use syndog_net::Ipv4Net;
/// let net: Ipv4Net = "152.2.0.0/16".parse().unwrap();
/// assert!(net.contains("152.2.9.41".parse().unwrap()));
/// assert!(!net.contains("130.216.0.9".parse().unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ipv4Net {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Net {
    /// Creates a prefix from a base address and prefix length.
    ///
    /// The host bits of `addr` are zeroed so that equal prefixes compare
    /// equal regardless of the address they were constructed from.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length {prefix_len} exceeds 32");
        let base = u32::from(addr) & Self::mask_bits(prefix_len);
        Ipv4Net {
            addr: Ipv4Addr::from(base),
            prefix_len,
        }
    }

    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(prefix_len))
        }
    }

    /// The network base address (host bits zero).
    pub fn network(&self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Returns `true` if `ip` falls inside this prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask_bits(self.prefix_len) == u32::from(self.addr)
    }

    /// Number of addresses covered by the prefix (including network and
    /// broadcast addresses).
    pub fn size(&self) -> u64 {
        1u64 << (32 - u32::from(self.prefix_len))
    }

    /// Returns the `index`-th host address inside the prefix, skipping the
    /// network address itself.
    ///
    /// # Panics
    ///
    /// Panics if `index + 1` is outside the prefix.
    pub fn host(&self, index: u32) -> Ipv4Addr {
        let offset = u64::from(index) + 1;
        assert!(offset < self.size(), "host index {index} outside {self}");
        Ipv4Addr::from(u32::from(self.addr) + index + 1)
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

/// Error returned when parsing an [`Ipv4Net`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetError {
    input: String,
}

impl fmt::Display for ParseNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ipv4 prefix syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseNetError {}

impl FromStr for Ipv4Net {
    type Err = ParseNetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseNetError {
            input: s.to_owned(),
        };
        let (addr, len) = s.split_once('/').ok_or_else(err)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| err())?;
        let len: u8 = len.parse().map_err(|_| err())?;
        if len > 32 {
            return Err(err());
        }
        Ok(Ipv4Net::new(addr, len))
    }
}

/// Returns `true` if `ip` is an *unroutable* source address — the kind a
/// SYN-flood attacker spoofs so the victim's SYN/ACKs vanish.
///
/// Covers the address classes that were bogons on the 2002-era Internet and
/// remain so today: this-network (`0.0.0.0/8`), loopback (`127.0.0.0/8`),
/// RFC 1918 private space, link-local (`169.254.0.0/16`), TEST-NET
/// (`192.0.2.0/24`), multicast (`224.0.0.0/4`) and reserved/broadcast
/// (`240.0.0.0/4` including `255.255.255.255`).
///
/// ```
/// use syndog_net::is_unroutable_source;
/// assert!(is_unroutable_source("10.1.2.3".parse().unwrap()));
/// assert!(is_unroutable_source("240.0.0.1".parse().unwrap()));
/// assert!(!is_unroutable_source("152.2.9.41".parse().unwrap()));
/// ```
pub fn is_unroutable_source(ip: Ipv4Addr) -> bool {
    let o = ip.octets();
    match o[0] {
        0 | 10 | 127 => true,
        169 if o[1] == 254 => true,
        172 if (16..=31).contains(&o[1]) => true,
        192 if o[1] == 168 => true,
        192 if o[1] == 0 && o[2] == 2 => true,
        224..=255 => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_roundtrip_through_display_and_parse() {
        let mac = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        assert_eq!(mac, parsed);
    }

    #[test]
    fn mac_parse_rejects_malformed_inputs() {
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:42:17".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:zz:42".parse::<MacAddr>().is_err());
        assert!("dead:be:ef:00:42".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_flag_bits() {
        // The U/L bit (0x02) is set, the group bit (0x01) clear.
        let local = MacAddr::for_host(3, 77);
        assert_eq!(local.octets()[0] & 0x03, 0x02);
        assert_eq!(MacAddr::ZERO.octets()[0] & 0x02, 0);
    }

    #[test]
    fn for_host_is_injective_over_small_ranges() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for net in 0..4u16 {
            for host in 0..256u32 {
                assert!(seen.insert(MacAddr::for_host(net, host)));
            }
        }
    }

    #[test]
    fn net_contains_and_masks() {
        let net: Ipv4Net = "152.2.0.0/16".parse().unwrap();
        assert_eq!(Ipv4Net::mask_bits(net.prefix_len()), 0xffff_0000);
        assert!(net.contains(Ipv4Addr::new(152, 2, 255, 255)));
        assert!(!net.contains(Ipv4Addr::new(152, 3, 0, 0)));
        assert_eq!(net.size(), 65536);
    }

    #[test]
    fn net_zero_prefix_contains_everything() {
        let net = Ipv4Net::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert!(net.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(net.contains(Ipv4Addr::new(1, 2, 3, 4)));
    }

    #[test]
    fn net_full_prefix_contains_only_itself() {
        let net = Ipv4Net::new(Ipv4Addr::new(8, 8, 8, 8), 32);
        assert!(net.contains(Ipv4Addr::new(8, 8, 8, 8)));
        assert!(!net.contains(Ipv4Addr::new(8, 8, 8, 9)));
        assert_eq!(net.size(), 1);
    }

    #[test]
    fn net_normalizes_host_bits() {
        let a = Ipv4Net::new(Ipv4Addr::new(10, 1, 2, 3), 8);
        let b = Ipv4Net::new(Ipv4Addr::new(10, 9, 9, 9), 8);
        assert_eq!(a, b);
        assert_eq!(a.network(), Ipv4Addr::new(10, 0, 0, 0));
    }

    #[test]
    fn net_host_enumeration_skips_network_address() {
        let net: Ipv4Net = "192.0.2.0/29".parse().unwrap();
        assert_eq!(net.host(0), Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(net.host(5), Ipv4Addr::new(192, 0, 2, 6));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn net_host_out_of_range_panics() {
        let net: Ipv4Net = "192.0.2.0/30".parse().unwrap();
        let _ = net.host(3);
    }

    #[test]
    fn net_parse_rejects_bad_inputs() {
        assert!("152.2.0.0".parse::<Ipv4Net>().is_err());
        assert!("152.2.0.0/33".parse::<Ipv4Net>().is_err());
        assert!("152.2.0/16".parse::<Ipv4Net>().is_err());
        assert!("hello/16".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn bogon_classification() {
        let unroutable = [
            "0.0.0.1",
            "10.255.255.255",
            "127.0.0.1",
            "169.254.1.1",
            "172.16.0.1",
            "172.31.255.1",
            "192.168.0.1",
            "192.0.2.55",
            "224.0.0.1",
            "240.0.0.1",
            "255.255.255.255",
        ];
        for s in unroutable {
            assert!(
                is_unroutable_source(s.parse().unwrap()),
                "{s} should be unroutable"
            );
        }
        let routable = [
            "8.8.8.8",
            "152.2.9.41",
            "130.216.0.9",
            "172.32.0.1",
            "192.1.2.3",
            "169.253.0.1",
        ];
        for s in routable {
            assert!(
                !is_unroutable_source(s.parse().unwrap()),
                "{s} should be routable"
            );
        }
    }
}
