//! SYN proxy / SynDefender — the firewall-resident defenses of references
//! \[6\] and \[19\].
//!
//! The proxy answers every inbound SYN with a SYN/ACK *on the server's
//! behalf*, holding a per-connection entry until the client's final ACK
//! proves it real; only then is the connection replayed to the protected
//! server. Legitimate clients never notice. Spoofed SYNs, however, park an
//! entry in the proxy's table for the whole handshake timeout — the
//! defense relocates the backlog-exhaustion problem from the server to
//! itself, which is precisely the paper's criticism. State growth under
//! flood is linear and measured by [`Defense::state_bytes`].

use std::collections::HashMap;
use std::net::SocketAddrV4;

use syndog_sim::{SimDuration, SimTime};

use crate::resource::{Defense, DefenseVerdict, HALF_OPEN_ENTRY_BYTES};

/// Proxy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProxyConfig {
    /// Maximum simultaneous pending (un-proven) connections the proxy can
    /// hold before it starts dropping new SYNs.
    pub table_capacity: usize,
    /// How long an unproven entry is held.
    pub pending_timeout: SimDuration,
}

impl ProxyConfig {
    /// A generously-sized 2002-era firewall: 65,536 entries, 30 s timeout
    /// (firewalls used shorter timeouts than servers).
    pub fn classic() -> Self {
        ProxyConfig {
            table_capacity: 65_536,
            pending_timeout: SimDuration::from_secs(30),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    opened: SimTime,
    isn: u32,
}

/// A SYN proxy guarding one server.
#[derive(Debug, Clone)]
pub struct SynProxy {
    config: ProxyConfig,
    pending: HashMap<SocketAddrV4, Pending>,
    established: u64,
    dropped: u64,
    expired: u64,
    max_pending: usize,
    isn_counter: u32,
}

impl SynProxy {
    /// Creates a proxy with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the table capacity is zero.
    pub fn new(config: ProxyConfig) -> Self {
        assert!(
            config.table_capacity > 0,
            "proxy table capacity must be non-zero"
        );
        SynProxy {
            config,
            pending: HashMap::new(),
            established: 0,
            dropped: 0,
            expired: 0,
            max_pending: 0,
            isn_counter: 0x6000_0000,
        }
    }

    /// High-water mark of the pending table.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// SYNs refused because the table was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Entries that timed out unproven (the flood's footprint).
    pub fn expired(&self) -> u64 {
        self.expired
    }

    fn expire(&mut self, now: SimTime) {
        let timeout = self.config.pending_timeout;
        let before = self.pending.len();
        self.pending
            .retain(|_, p| now.saturating_since(p.opened) < timeout);
        self.expired += (before - self.pending.len()) as u64;
    }
}

impl Defense for SynProxy {
    fn on_syn(&mut self, now: SimTime, client: SocketAddrV4) -> DefenseVerdict {
        self.expire(now);
        if self.pending.contains_key(&client) {
            return DefenseVerdict::SynAckSent; // retransmit our SYN/ACK
        }
        if self.pending.len() >= self.config.table_capacity {
            self.dropped += 1;
            return DefenseVerdict::Dropped;
        }
        self.isn_counter = self.isn_counter.wrapping_add(64_000);
        self.pending.insert(
            client,
            Pending {
                opened: now,
                isn: self.isn_counter,
            },
        );
        self.max_pending = self.max_pending.max(self.pending.len());
        DefenseVerdict::SynAckSent
    }

    fn on_ack(&mut self, now: SimTime, client: SocketAddrV4, ack: u32) -> DefenseVerdict {
        self.expire(now);
        match self.pending.get(&client) {
            Some(p) if ack == p.isn.wrapping_add(1) => {
                self.pending.remove(&client);
                self.established += 1;
                // The proxy now replays the handshake toward the real
                // server and splices the connection.
                DefenseVerdict::Established
            }
            Some(_) => DefenseVerdict::Dropped, // wrong ack number
            None => DefenseVerdict::Forwarded,  // established flow traffic
        }
    }

    fn on_rst(&mut self, now: SimTime, client: SocketAddrV4) {
        self.expire(now);
        self.pending.remove(&client);
    }

    fn state_bytes(&self) -> usize {
        self.pending.len() * HALF_OPEN_ENTRY_BYTES
    }

    fn established(&self) -> u64 {
        self.established
    }

    fn name(&self) -> &'static str {
        "syn proxy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(n: u32) -> SocketAddrV4 {
        SocketAddrV4::new(
            std::net::Ipv4Addr::from(0xc633_6400 | (n & 0xff)),
            (n % 60000) as u16 + 1024,
        )
    }

    fn spoofed(n: u32) -> SocketAddrV4 {
        SocketAddrV4::new(std::net::Ipv4Addr::from(0x0a00_0000 | n), 6000)
    }

    #[test]
    fn legitimate_client_establishes_through_proxy() {
        let mut proxy = SynProxy::new(ProxyConfig::classic());
        let t = SimTime::from_secs(1);
        assert_eq!(proxy.on_syn(t, client(1)), DefenseVerdict::SynAckSent);
        // Client ACKs the proxy's ISN + 1. The test reads it via the
        // pending table by replaying the deterministic counter.
        let isn = 0x6000_0000u32.wrapping_add(64_000);
        assert_eq!(
            proxy.on_ack(t, client(1), isn.wrapping_add(1)),
            DefenseVerdict::Established
        );
        assert_eq!(proxy.established(), 1);
        assert_eq!(proxy.pending.len(), 0);
    }

    #[test]
    fn wrong_ack_number_rejected() {
        let mut proxy = SynProxy::new(ProxyConfig::classic());
        let t = SimTime::from_secs(1);
        proxy.on_syn(t, client(2));
        assert_eq!(proxy.on_ack(t, client(2), 12345), DefenseVerdict::Dropped);
        assert_eq!(proxy.established(), 0);
        assert_eq!(proxy.pending.len(), 1, "entry stays until timeout");
    }

    #[test]
    fn state_grows_linearly_with_flood() {
        let mut proxy = SynProxy::new(ProxyConfig::classic());
        let t = SimTime::from_secs(1);
        for i in 0..10_000 {
            proxy.on_syn(t, spoofed(i));
        }
        assert_eq!(proxy.pending.len(), 10_000);
        assert_eq!(proxy.state_bytes(), 10_000 * HALF_OPEN_ENTRY_BYTES);
    }

    #[test]
    fn table_exhaustion_drops_new_clients() {
        let mut proxy = SynProxy::new(ProxyConfig {
            table_capacity: 100,
            pending_timeout: SimDuration::from_secs(30),
        });
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            proxy.on_syn(t, spoofed(i));
        }
        // The defense itself is now denying service — the paper's point.
        assert_eq!(proxy.on_syn(t, client(3)), DefenseVerdict::Dropped);
        assert_eq!(proxy.dropped(), 1);
    }

    #[test]
    fn entries_expire_and_are_counted() {
        let mut proxy = SynProxy::new(ProxyConfig::classic());
        proxy.on_syn(SimTime::from_secs(0), spoofed(1));
        proxy.on_syn(SimTime::from_secs(20), spoofed(2));
        proxy.on_syn(SimTime::from_secs(31), client(4));
        assert_eq!(proxy.pending.len(), 2, "first entry expired at 31 s");
        assert_eq!(proxy.expired(), 1);
    }

    #[test]
    fn rst_clears_pending_entry() {
        let mut proxy = SynProxy::new(ProxyConfig::classic());
        let t = SimTime::from_secs(1);
        proxy.on_syn(t, client(5));
        proxy.on_rst(t, client(5));
        assert_eq!(proxy.pending.len(), 0);
    }

    #[test]
    fn ack_without_pending_forwards_as_flow_traffic() {
        let mut proxy = SynProxy::new(ProxyConfig::classic());
        assert_eq!(
            proxy.on_ack(SimTime::from_secs(1), client(6), 777),
            DefenseVerdict::Forwarded
        );
    }
}
