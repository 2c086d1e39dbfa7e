//! A victim TCP server with a finite backlog of half-open connections.
//!
//! §1 of the paper: a server keeps every half-open connection in a finite
//! backlog queue for up to the TCP connection timeout ("typically lasts for
//! 75 seconds"); spoofed SYNs are never completed, so a modest flood pins
//! the queue at capacity and every legitimate SYN is dropped. This module
//! makes that mechanism concrete — the `victim_impact` example and the
//! discussion experiments use it to reproduce the 500 SYN/s
//! unprotected-server figure the paper cites from \[8\].

use std::collections::HashMap;
use std::net::SocketAddrV4;

use syndog_sim::{SimDuration, SimTime};

/// Server capacity parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BacklogConfig {
    /// Maximum simultaneous half-open connections.
    pub capacity: usize,
    /// How long a half-open entry is held before expiring (the paper's
    /// 75 s: two failed SYN/ACK retransmissions).
    pub handshake_timeout: SimDuration,
}

impl BacklogConfig {
    /// A typical 2002-era unprotected server: a 1024-entry backlog and the
    /// 75-second timeout.
    pub fn classic() -> Self {
        BacklogConfig {
            capacity: 1024,
            handshake_timeout: SimDuration::from_secs(75),
        }
    }
}

/// The server's verdict on an incoming SYN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynVerdict {
    /// Accepted: a SYN/ACK is sent and a backlog slot consumed.
    SynAckSent,
    /// Retransmitted SYN for an existing half-open entry: SYN/ACK resent,
    /// no new slot.
    DuplicateSynAck,
    /// Backlog full: the SYN is silently dropped (the denial of service).
    Dropped,
}

/// Cumulative service statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// SYNs received.
    pub syn_received: u64,
    /// SYN/ACKs sent (including duplicates).
    pub synack_sent: u64,
    /// SYNs dropped because the backlog was full.
    pub syn_dropped: u64,
    /// Handshakes completed by a final ACK.
    pub completed: u64,
    /// Half-open entries that expired unacknowledged.
    pub expired: u64,
    /// High-water mark of backlog occupancy.
    pub max_backlog: usize,
}

/// A victim server instance listening on one port.
#[derive(Debug, Clone)]
pub struct VictimServer {
    config: BacklogConfig,
    half_open: HashMap<SocketAddrV4, SimTime>,
    stats: ServerStats,
}

impl VictimServer {
    /// Creates a server with the given backlog configuration.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(config: BacklogConfig) -> Self {
        assert!(config.capacity > 0, "backlog capacity must be non-zero");
        VictimServer {
            config,
            half_open: HashMap::new(),
            stats: ServerStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BacklogConfig {
        &self.config
    }

    /// Current number of half-open connections.
    pub fn backlog_occupancy(&self) -> usize {
        self.half_open.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Drops every half-open entry whose timeout has passed as of `now`.
    pub fn expire(&mut self, now: SimTime) {
        let timeout = self.config.handshake_timeout;
        let before = self.half_open.len();
        self.half_open
            .retain(|_, opened| now.saturating_since(*opened) < timeout);
        self.stats.expired += (before - self.half_open.len()) as u64;
    }

    /// Processes a SYN from `client` at time `now`.
    pub fn on_syn(&mut self, now: SimTime, client: SocketAddrV4) -> SynVerdict {
        self.expire(now);
        self.stats.syn_received += 1;
        if self.half_open.contains_key(&client) {
            self.stats.synack_sent += 1;
            return SynVerdict::DuplicateSynAck;
        }
        if self.half_open.len() >= self.config.capacity {
            self.stats.syn_dropped += 1;
            return SynVerdict::Dropped;
        }
        self.half_open.insert(client, now);
        self.stats.synack_sent += 1;
        self.stats.max_backlog = self.stats.max_backlog.max(self.half_open.len());
        SynVerdict::SynAckSent
    }

    /// Processes the client's final ACK; returns `true` if it completed a
    /// pending handshake.
    pub fn on_ack(&mut self, now: SimTime, client: SocketAddrV4) -> bool {
        self.expire(now);
        if self.half_open.remove(&client).is_some() {
            self.stats.completed += 1;
            true
        } else {
            false
        }
    }

    /// Processes a RST for a half-open entry (e.g. from a *reachable*
    /// spoofed host that received an unexpected SYN/ACK — the reason
    /// attackers must spoof unroutable addresses, §1).
    pub fn on_rst(&mut self, _now: SimTime, client: SocketAddrV4) -> bool {
        self.half_open.remove(&client).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(n: u16) -> SocketAddrV4 {
        SocketAddrV4::new(
            std::net::Ipv4Addr::new(198, 51, 100, (n % 250) as u8 + 1),
            1024 + n,
        )
    }

    fn tiny_server() -> VictimServer {
        VictimServer::new(BacklogConfig {
            capacity: 4,
            handshake_timeout: SimDuration::from_secs(75),
        })
    }

    #[test]
    fn normal_handshakes_complete_and_free_slots() {
        let mut server = tiny_server();
        let now = SimTime::from_secs(1);
        for n in 0..4 {
            assert_eq!(server.on_syn(now, client(n)), SynVerdict::SynAckSent);
        }
        assert_eq!(server.backlog_occupancy(), 4);
        for n in 0..4 {
            assert!(server.on_ack(now + SimDuration::from_millis(200), client(n)));
        }
        assert_eq!(server.backlog_occupancy(), 0);
        assert_eq!(server.stats().completed, 4);
        assert_eq!(server.stats().max_backlog, 4);
        assert_eq!(server.stats().syn_dropped, 0);
    }

    #[test]
    fn full_backlog_drops_new_syns() {
        let mut server = tiny_server();
        let now = SimTime::from_secs(1);
        for n in 0..4 {
            server.on_syn(now, client(n));
        }
        assert_eq!(server.on_syn(now, client(99)), SynVerdict::Dropped);
        assert_eq!(server.stats().syn_dropped, 1);
        assert_eq!(server.stats().syn_received, 5);
    }

    #[test]
    fn duplicate_syn_resends_synack_without_new_slot() {
        let mut server = tiny_server();
        let now = SimTime::from_secs(1);
        server.on_syn(now, client(7));
        assert_eq!(
            server.on_syn(now + SimDuration::from_secs(3), client(7)),
            SynVerdict::DuplicateSynAck
        );
        assert_eq!(server.backlog_occupancy(), 1);
        assert_eq!(server.stats().synack_sent, 2);
    }

    #[test]
    fn entries_expire_after_timeout() {
        let mut server = tiny_server();
        server.on_syn(SimTime::from_secs(0), client(1));
        server.on_syn(SimTime::from_secs(10), client(2));
        server.expire(SimTime::from_secs(76));
        assert_eq!(
            server.backlog_occupancy(),
            1,
            "only the younger entry survives"
        );
        assert_eq!(server.stats().expired, 1);
        // After expiry the freed slot accepts new SYNs again.
        for n in 10..13 {
            assert_eq!(
                server.on_syn(SimTime::from_secs(80), client(n)),
                SynVerdict::SynAckSent
            );
        }
    }

    #[test]
    fn spoofed_flood_denies_service_but_rst_defeats_it() {
        let mut server = tiny_server();
        let now = SimTime::from_secs(1);
        // Spoofed flood fills the backlog; the victims never ACK.
        for n in 0..4 {
            server.on_syn(now, client(n));
        }
        assert_eq!(server.on_syn(now, client(50)), SynVerdict::Dropped);
        // If a spoofed address is *reachable*, its owner RSTs the
        // unexpected SYN/ACK and the slot frees — the paper's argument for
        // why attackers use unroutable addresses.
        assert!(server.on_rst(now, client(0)));
        assert_eq!(server.on_syn(now, client(50)), SynVerdict::SynAckSent);
    }

    #[test]
    fn late_ack_after_expiry_is_ignored() {
        let mut server = tiny_server();
        server.on_syn(SimTime::from_secs(0), client(3));
        assert!(!server.on_ack(SimTime::from_secs(100), client(3)));
        assert_eq!(server.stats().completed, 0);
        assert_eq!(server.stats().expired, 1);
    }

    #[test]
    fn sustained_flood_pins_backlog_at_capacity() {
        let mut server = VictimServer::new(BacklogConfig::classic());
        let mut dropped_legit = 0;
        // 500 SYN/s of spoofed flood for 10 simulated seconds, with one
        // legitimate SYN per second interleaved.
        for ms in 0..10_000u64 {
            let now = SimTime::from_micros(ms * 1000);
            if ms % 2 == 0 {
                let n = (ms / 2) as u16;
                server.on_syn(
                    now,
                    SocketAddrV4::new(
                        std::net::Ipv4Addr::new(10, (n >> 8) as u8, n as u8, 1),
                        40000,
                    ),
                );
            }
            if ms % 1000 == 500 {
                if server.on_syn(now, client(1)) == SynVerdict::Dropped {
                    dropped_legit += 1;
                }
                // Legitimate client would ACK, but its SYN may be dropped.
                server.on_ack(now + SimDuration::from_millis(100), client(1));
            }
        }
        assert_eq!(server.backlog_occupancy(), server.config().capacity);
        assert!(
            dropped_legit >= 7,
            "only {dropped_legit} legitimate SYNs dropped"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = VictimServer::new(BacklogConfig {
            capacity: 0,
            handshake_timeout: SimDuration::from_secs(75),
        });
    }
}
