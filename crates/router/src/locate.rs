//! Post-alarm flooding-source localization (§4.2.3).
//!
//! "Due to its proximity to the flooding sources, once SYN-dog detects the
//! ongoing flooding traffic, it can further locate the flooding source
//! inside the stub network, for example, by triggering the ingress
//! filtering mechanism \[11\] and checking the MAC addresses of IP packets
//! whose source addresses are spoofed."
//!
//! [`SourceLocator`] implements exactly that: once armed, it inspects
//! outbound SYNs and tallies, per source MAC, how many carry a *spoofed*
//! source IP — one that is unroutable or does not belong to the stub
//! network (the ingress-filtering test of RFC 2267). The MAC with the
//! dominant spoof count is the compromised host.
//!
//! Beside the MAC tallies the locator keeps a [`FingerprintTable`] of the
//! spoofed SYNs' packed header fingerprints. Flooding tools craft SYNs
//! from a fixed template, so the spoofed stream collapses onto one
//! dominant [`FingerprintKey`] — an attribution signal that survives even
//! when the attacker forges a fresh source MAC per packet and no single
//! hardware address dominates.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use syndog_fingerprint::{FingerprintKey, FingerprintTable};
use syndog_net::addr::is_unroutable_source;
use syndog_net::{Ipv4Net, MacAddr, SegmentKind};
use syndog_traffic::trace::{Direction, TraceRecord};

use crate::agent::SynDogAgent;

/// Per-MAC accounting of outbound SYN activity while an alarm is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MacActivity {
    /// Outbound SYNs with a spoofed source address.
    pub spoofed_syns: u64,
    /// Outbound SYNs with a legitimate in-stub source address.
    pub legitimate_syns: u64,
}

/// A localization verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Suspect {
    /// The hardware address of the suspected flooding host.
    pub mac: MacAddr,
    /// How many spoofed-source SYNs it emitted during the armed window.
    pub spoofed_syns: u64,
    /// Fraction of all spoofed SYNs attributable to this MAC.
    pub share: f64,
}

/// The ingress-filtering-based source locator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceLocator {
    stub: Option<Ipv4Net>,
    armed: bool,
    by_mac: HashMap<MacAddr, MacActivity>,
    attack_fps: FingerprintTable,
    /// Spoofed SYNs over every MAC.
    spoofed: u64,
    /// The head of [`SourceLocator::suspects`] as `(mac, spoofed SYNs)`,
    /// kept as counts are added: counts only grow until `disarm`, so only
    /// the MAC just counted can take the lead.
    leader: Option<(MacAddr, u64)>,
}

impl SourceLocator {
    /// Creates a locator for the given stub prefix. It starts disarmed:
    /// per-MAC accounting only runs after an alarm (keeping the steady
    /// state stateless).
    pub fn new(stub: Ipv4Net) -> Self {
        SourceLocator {
            stub: Some(stub),
            ..SourceLocator::default()
        }
    }

    /// Rebuilds a locator from previously captured accounting state
    /// (checkpoint restore).
    pub(crate) fn from_parts(
        stub: Option<Ipv4Net>,
        armed: bool,
        by_mac: HashMap<MacAddr, MacActivity>,
        attack_fps: FingerprintTable,
    ) -> Self {
        let mut locator = SourceLocator {
            stub,
            armed,
            attack_fps,
            ..SourceLocator::default()
        };
        for (&mac, activity) in &by_mac {
            locator.spoofed += activity.spoofed_syns;
            locator.offer_lead(mac, activity.spoofed_syns);
        }
        locator.by_mac = by_mac;
        locator
    }

    /// Offers the lead to `mac`, now at `count` spoofed SYNs: the most
    /// lead, a tie goes to the lowest MAC, and none is no lead at all.
    fn offer_lead(&mut self, mac: MacAddr, count: u64) {
        if count > 0
            && self
                .leader
                .is_none_or(|(lead, most)| count > most || (count == most && mac < lead))
        {
            self.leader = Some((mac, count));
        }
    }

    /// The stub prefix this locator filters against, if any.
    pub fn stub(&self) -> Option<Ipv4Net> {
        self.stub
    }

    /// Whether per-MAC accounting is currently running.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Starts accounting — call when the detector raises an alarm.
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Stops accounting and clears the tallies.
    pub fn disarm(&mut self) {
        self.armed = false;
        self.by_mac.clear();
        self.attack_fps.clear();
        self.spoofed = 0;
        self.leader = None;
    }

    /// The ingress-filtering spoof test: an outbound packet is spoofed if
    /// its source is unroutable or lies outside the stub prefix.
    pub fn is_spoofed_source(&self, src: Ipv4Addr) -> bool {
        let outside_stub = self.stub.map(|net| !net.contains(src)).unwrap_or(false);
        is_unroutable_source(src) || outside_stub
    }

    /// The detect-then-locate sweep, one record at a time, as the agent's
    /// record-loop hook
    /// ([`SynDogAgent::run_trace_with`](crate::agent::SynDogAgent::run_trace_with)):
    /// arms at `agent`'s first alarm, then inspects `record`.
    pub fn observe_after_alarm(&mut self, agent: &SynDogAgent, record: &TraceRecord) {
        if !self.armed && agent.first_alarm().is_some() {
            self.arm();
        }
        self.observe(record);
    }

    /// Inspects one outbound record (no-op unless armed and the record is
    /// an outbound SYN).
    pub fn observe(&mut self, record: &TraceRecord) {
        if record.direction == Direction::Outbound && record.kind == SegmentKind::Syn {
            self.observe_syn(record);
        }
    }

    /// [`SourceLocator::observe`] for a record already known to be an
    /// outbound SYN: a no-op unless armed.
    pub(crate) fn observe_syn(&mut self, record: &TraceRecord) {
        if !self.armed {
            return;
        }
        let spoofed = self.is_spoofed_source(*record.src.ip());
        let entry = self.by_mac.entry(record.src_mac).or_default();
        if spoofed {
            entry.spoofed_syns += 1;
            let count = entry.spoofed_syns;
            self.spoofed += 1;
            self.offer_lead(record.src_mac, count);
            // fp == 0 means "no fingerprint captured" (count-level traces),
            // not a real key — keep it out of the attribution table.
            if record.fp != 0 {
                self.attack_fps.observe_bits(record.fp);
            }
        } else {
            entry.legitimate_syns += 1;
        }
    }

    /// Total spoofed SYNs seen while armed.
    pub fn total_spoofed(&self) -> u64 {
        self.spoofed
    }

    /// The accounting table.
    pub fn activity(&self) -> &HashMap<MacAddr, MacActivity> {
        &self.by_mac
    }

    /// Per-fingerprint tallies of the spoofed SYNs seen while armed.
    pub fn attack_fingerprints(&self) -> &FingerprintTable {
        &self.attack_fps
    }

    /// The dominant attack fingerprint and its share of the fingerprinted
    /// spoofed SYNs, if one packed key accounts for at least `min_share`
    /// of them. Reported beside the suspect MAC: a MAC names *which host*
    /// floods, the fingerprint names *which tool* — and unlike the MAC it
    /// cannot be rotated away without rewriting the flooder itself.
    pub fn dominant_fingerprint(&self, min_share: f64) -> Option<(FingerprintKey, f64)> {
        let (key, count) = self.attack_fps.dominant()?;
        let share = count as f64 / self.attack_fps.total() as f64;
        (share >= min_share).then_some((key, share))
    }

    /// Ranks suspects by spoofed-SYN count, descending, ties by MAC. MACs
    /// that emitted no spoofed SYNs are not suspects.
    pub fn suspects(&self) -> Vec<Suspect> {
        let total = self.total_spoofed();
        if total == 0 {
            return Vec::new();
        }
        let mut suspects: Vec<Suspect> = self
            .by_mac
            .iter()
            .filter(|(_, a)| a.spoofed_syns > 0)
            .map(|(mac, a)| Suspect {
                mac: *mac,
                spoofed_syns: a.spoofed_syns,
                share: a.spoofed_syns as f64 / total as f64,
            })
            .collect();
        suspects.sort_by(|a, b| b.spoofed_syns.cmp(&a.spoofed_syns).then(a.mac.cmp(&b.mac)));
        suspects
    }

    /// The dominant suspect — the head of [`SourceLocator::suspects`],
    /// kept as SYNs are counted, so asking costs nothing — if that MAC
    /// accounts for at least `min_share` of the spoofed SYNs.
    pub fn prime_suspect(&self, min_share: f64) -> Option<Suspect> {
        let (mac, spoofed_syns) = self.leader?;
        let share = spoofed_syns as f64 / self.spoofed as f64;
        (share >= min_share).then_some(Suspect {
            mac,
            spoofed_syns,
            share,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddrV4;
    use syndog_sim::SimTime;

    fn stub() -> Ipv4Net {
        "130.216.0.0/16".parse().unwrap()
    }

    fn syn(src: &str, mac: MacAddr) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_secs(1),
            Direction::Outbound,
            SegmentKind::Syn,
            src.parse::<SocketAddrV4>().unwrap(),
            "192.0.2.80:80".parse().unwrap(),
        )
        .with_mac(mac)
    }

    #[test]
    fn spoof_test_combines_bogon_and_ingress_filter() {
        let locator = SourceLocator::new(stub());
        // Unroutable: spoofed.
        assert!(locator.is_spoofed_source("10.3.4.5".parse().unwrap()));
        // Routable but outside the stub: spoofed (would be caught by
        // ingress filtering).
        assert!(locator.is_spoofed_source("8.8.8.8".parse().unwrap()));
        // Inside the stub: legitimate.
        assert!(!locator.is_spoofed_source("130.216.9.1".parse().unwrap()));
    }

    #[test]
    fn disarmed_locator_accounts_nothing() {
        let mut locator = SourceLocator::new(stub());
        locator.observe(&syn("10.0.0.1:5000", MacAddr::for_host(1, 1)));
        assert!(locator.activity().is_empty());
        assert!(locator.suspects().is_empty());
    }

    #[test]
    fn armed_locator_finds_the_flooding_mac() {
        let mut locator = SourceLocator::new(stub());
        locator.arm();
        let attacker = MacAddr::for_host(0xffff, 0xdead);
        let honest = MacAddr::for_host(3, 7);
        for i in 0..500u32 {
            // Attacker: spoofed unroutable sources.
            locator.observe(&syn(
                &format!("10.0.{}.{}:6000", i % 250, i % 200 + 1),
                attacker,
            ));
        }
        for _ in 0..50 {
            // Honest host: its own stub address.
            locator.observe(&syn("130.216.4.9:1025", honest));
        }
        let suspects = locator.suspects();
        assert_eq!(suspects.len(), 1, "honest host must not be a suspect");
        assert_eq!(suspects[0].mac, attacker);
        assert_eq!(suspects[0].spoofed_syns, 500);
        assert!((suspects[0].share - 1.0).abs() < 1e-12);
        let prime = locator.prime_suspect(0.9).unwrap();
        assert_eq!(prime.mac, attacker);
    }

    #[test]
    fn multiple_attackers_are_ranked() {
        let mut locator = SourceLocator::new(stub());
        locator.arm();
        let big = MacAddr::for_host(1, 1);
        let small = MacAddr::for_host(2, 2);
        for _ in 0..300 {
            locator.observe(&syn("10.1.1.1:6000", big));
        }
        for _ in 0..100 {
            locator.observe(&syn("10.2.2.2:6000", small));
        }
        let suspects = locator.suspects();
        assert_eq!(suspects.len(), 2);
        assert_eq!(suspects[0].mac, big);
        assert!((suspects[0].share - 0.75).abs() < 1e-12);
        // Nobody holds ≥ 90% here.
        assert!(locator.prime_suspect(0.9).is_none());
        assert!(locator.prime_suspect(0.5).is_some());
    }

    #[test]
    fn dominant_fingerprint_names_the_tool_despite_mac_rotation() {
        use syndog_fingerprint::os_mix;
        let mut locator = SourceLocator::new(stub());
        locator.arm();
        let tool_fp = syndog_attack::tools::AttackTool::Tfn
            .fingerprint()
            .unwrap()
            .to_bits();
        // The attacker rotates MACs: 40 spoofed SYNs over 8 addresses.
        for i in 0..40u32 {
            locator
                .observe(&syn("10.0.0.1:6000", MacAddr::for_host(0xfffe, i % 8)).with_fp(tool_fp));
        }
        // Legitimate hosts with OS-mix fingerprints are not attack evidence.
        for i in 0..20u32 {
            locator.observe(
                &syn("130.216.4.9:1025", MacAddr::for_host(3, i))
                    .with_fp(os_mix::for_host(0, i).to_bits()),
            );
        }
        // No MAC holds a majority of the spoofed SYNs...
        assert!(locator.prime_suspect(0.5).is_none());
        // ...but the tool fingerprint holds all of them.
        let (fp, share) = locator.dominant_fingerprint(0.9).expect("dominant fp");
        assert_eq!(fp.to_bits(), tool_fp);
        assert!((share - 1.0).abs() < 1e-12);
        assert_eq!(locator.attack_fingerprints().total(), 40);
        locator.disarm();
        assert!(locator.attack_fingerprints().is_empty());
    }

    #[test]
    fn non_syn_and_inbound_records_ignored() {
        let mut locator = SourceLocator::new(stub());
        locator.arm();
        let mut ack = syn("10.0.0.1:5000", MacAddr::for_host(1, 1));
        ack.kind = SegmentKind::Ack;
        locator.observe(&ack);
        let mut inbound = syn("10.0.0.1:5000", MacAddr::for_host(1, 1));
        inbound.direction = Direction::Inbound;
        locator.observe(&inbound);
        assert_eq!(locator.total_spoofed(), 0);
    }

    #[test]
    fn disarm_clears_state() {
        let mut locator = SourceLocator::new(stub());
        locator.arm();
        locator.observe(&syn("10.0.0.1:5000", MacAddr::for_host(1, 1)));
        assert_eq!(locator.total_spoofed(), 1);
        locator.disarm();
        assert!(!locator.is_armed());
        assert_eq!(locator.total_spoofed(), 0);
    }

    #[test]
    fn end_to_end_with_flood_trace() {
        use syndog_attack::SynFlood;
        use syndog_sim::{SimDuration, SimRng};
        let mut rng = SimRng::seed_from_u64(44);
        let attacker_mac = MacAddr::for_host(0xff00, 7);
        let flood = SynFlood::constant(
            50.0,
            SimTime::ZERO,
            SimDuration::from_secs(60),
            "192.0.2.80:80".parse().unwrap(),
        )
        .with_mac(attacker_mac);
        let trace = flood.generate_trace(&mut rng);
        let mut locator = SourceLocator::new(stub());
        locator.arm();
        for record in trace.records() {
            locator.observe(record);
        }
        let prime = locator
            .prime_suspect(0.99)
            .expect("one attacker, one suspect");
        assert_eq!(prime.mac, attacker_mac);
        assert!(prime.spoofed_syns > 2500);
    }

    proptest::proptest! {
        /// The lead kept as SYNs are counted is the head of `suspects()`
        /// and the full scan over `activity()`, on streams over a few MACs
        /// (so counts tie) with disarms and checkpoint restores between.
        #[test]
        fn the_kept_lead_is_the_ranked_head(
            steps in proptest::collection::vec((0u8..12, 0u32..5, proptest::prelude::any::<bool>()), 0..300),
        ) {
            let mut locator = SourceLocator::new(stub());
            locator.arm();
            for (op, host, spoofed) in steps {
                match op {
                    0 => locator.disarm(),
                    1 => locator.arm(),
                    2 => {
                        locator = SourceLocator::from_parts(
                            locator.stub(),
                            locator.is_armed(),
                            locator.activity().clone(),
                            locator.attack_fingerprints().clone(),
                        )
                    }
                    _ => {
                        let src = if spoofed { "10.0.0.1:6000" } else { "130.216.4.9:1025" };
                        locator.observe(&syn(src, MacAddr::for_host(1, host)));
                    }
                }
                let head = locator.suspects().into_iter().next();
                proptest::prop_assert_eq!(locator.prime_suspect(0.0), head);
                let scan = locator
                    .activity()
                    .iter()
                    .filter(|(_, a)| a.spoofed_syns > 0)
                    .max_by(|a, b| a.1.spoofed_syns.cmp(&b.1.spoofed_syns).then(b.0.cmp(a.0)))
                    .map(|(mac, a)| (*mac, a.spoofed_syns));
                let lead = locator.prime_suspect(0.0).map(|s| (s.mac, s.spoofed_syns));
                proptest::prop_assert_eq!(lead, scan);
                let total: u64 = locator.activity().values().map(|a| a.spoofed_syns).sum();
                proptest::prop_assert_eq!(locator.total_spoofed(), total);
            }
        }
    }
}
