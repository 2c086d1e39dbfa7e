//! Distributed denial-of-service campaign coordination.
//!
//! §4.2 of the paper: "the master sends control packets to the
//! previously-compromised slaves, instructing them to target at a given
//! victim. The slaves then generate and send high-volume streams of
//! flooding messages to the victim." The evaluation's key assumption is
//! that the aggregate rate `V` is split evenly across `A` stub networks
//! with one flooding source each, so each SYN-dog sees only
//! `f_i = V / A` — the attacker's best strategy for hiding from
//! first-mile detection.

use std::net::SocketAddrV4;

use syndog_fingerprint::FingerprintKey;
use syndog_net::MacAddr;
use syndog_sim::{SimDuration, SimTime};

use crate::flood::{FloodPattern, SpoofStrategy, SynFlood};

/// The SYN header template of TFN2K, the tool every slave runs: a bare,
/// option-less SYN off a raw socket (TTL 255, window 1024). Real flooding
/// tools craft SYNs from a fixed template rather than a kernel TCP stack,
/// so every packet shares this one fingerprint.
fn tfn2k_template() -> FingerprintKey {
    FingerprintKey::new(255, 1024, 0, 0, 0)
}

/// A coordinated multi-source SYN-flood campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DdosCampaign {
    /// Aggregate flooding rate `V` in SYN/s across all sources.
    pub total_rate: f64,
    /// Number of stub networks hosting one flooding source each (`A`).
    pub stub_networks: usize,
    /// Campaign start (all slaves start together — the master's trigger).
    pub start: SimTime,
    /// Campaign duration (the paper's experiments use 10 minutes).
    pub duration: SimDuration,
    /// The victim.
    pub target: SocketAddrV4,
    /// Temporal pattern shared by all slaves.
    pub pattern: FloodPattern,
}

impl DdosCampaign {
    /// Creates a campaign with the paper's defaults: constant pattern,
    /// 10-minute duration.
    ///
    /// # Panics
    ///
    /// Panics if `stub_networks` is zero or `total_rate` is negative.
    pub fn new(
        total_rate: f64,
        stub_networks: usize,
        start: SimTime,
        target: SocketAddrV4,
    ) -> Self {
        assert!(
            stub_networks > 0,
            "a campaign needs at least one stub network"
        );
        assert!(total_rate >= 0.0, "negative total rate {total_rate}");
        DdosCampaign {
            total_rate,
            stub_networks,
            start,
            duration: SimDuration::from_secs(600),
            target,
            pattern: FloodPattern::Constant,
        }
    }

    /// The per-stub-network rate `f_i = V / A` each SYN-dog observes.
    pub fn per_network_rate(&self) -> f64 {
        self.total_rate / self.stub_networks as f64
    }

    /// Builds the slave flooder for stub network `index`
    /// (`0 ≤ index < stub_networks`), with a deterministic per-slave MAC
    /// so localization experiments can name the culprit.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn slave(&self, index: usize) -> SynFlood {
        assert!(
            index < self.stub_networks,
            "slave index {index} out of range"
        );
        SynFlood {
            rate: self.per_network_rate(),
            start: self.start,
            duration: self.duration,
            pattern: self.pattern,
            spoof: SpoofStrategy::RandomUnroutable,
            target: self.target,
            attacker_mac: MacAddr::for_host(0xff00 | (index as u16 & 0xff), index as u32),
            // Every slave runs the same master-distributed tool, so every
            // slave's SYNs carry the same header template — which is what
            // lets fingerprint-keyed throttling and cross-stub campaign
            // correlation tie the sources together.
            fp: tfn2k_template().to_bits(),
            mac_rotation: 0,
        }
    }

    /// All slave flooders.
    pub fn slaves(&self) -> Vec<SynFlood> {
        (0..self.stub_networks).map(|i| self.slave(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_sim::SimRng;

    fn victim() -> SocketAddrV4 {
        "192.0.2.80:80".parse().unwrap()
    }

    #[test]
    fn per_network_rate_splits_evenly() {
        let campaign = DdosCampaign::new(14_000.0, 400, SimTime::ZERO, victim());
        assert!((campaign.per_network_rate() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn slaves_share_timing_but_not_identity() {
        let campaign = DdosCampaign::new(900.0, 3, SimTime::from_secs(120), victim());
        let slaves = campaign.slaves();
        assert_eq!(slaves.len(), 3);
        for s in &slaves {
            assert_eq!(s.start, SimTime::from_secs(120));
            assert_eq!(s.duration, SimDuration::from_secs(600));
            assert!((s.rate - 300.0).abs() < 1e-9);
            assert_eq!(s.target, victim());
        }
        assert_ne!(slaves[0].attacker_mac, slaves[1].attacker_mac);
        assert_ne!(slaves[1].attacker_mac, slaves[2].attacker_mac);
    }

    #[test]
    fn aggregate_volume_matches_total_rate() {
        let campaign = DdosCampaign::new(600.0, 4, SimTime::ZERO, victim());
        let mut rng = SimRng::seed_from_u64(1);
        let total: usize = campaign
            .slaves()
            .iter()
            .map(|s| s.generate_times(&mut rng).len())
            .sum();
        // 600 SYN/s × 600 s = 360,000.
        assert!(
            (total as f64 / 360_000.0 - 1.0).abs() < 0.05,
            "total {total}"
        );
    }

    #[test]
    fn hiding_analysis_matches_paper_discussion() {
        // UNC: f_min = 37 ⇒ an attacker needs 379+ stub networks to hide a
        // V = 14,000 campaign (the paper says A can be "as large as 378"
        // while still being *detected*): each slave's share must fall
        // below f_min.
        let visible = DdosCampaign::new(14_000.0, 378, SimTime::ZERO, victim());
        assert!(visible.per_network_rate() >= 37.0);
        let hidden = DdosCampaign::new(14_000.0, 379, SimTime::ZERO, victim());
        assert!(hidden.per_network_rate() < 37.0);
        // Auckland: f_min = 1.75 ⇒ 8,000 networks still detectable.
        let auckland = DdosCampaign::new(14_000.0, 8_000, SimTime::ZERO, victim());
        assert!(auckland.per_network_rate() >= 1.75);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_networks_rejected() {
        let _ = DdosCampaign::new(100.0, 0, SimTime::ZERO, victim());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slave_index_validated() {
        let campaign = DdosCampaign::new(100.0, 2, SimTime::ZERO, victim());
        let _ = campaign.slave(2);
    }
}
