//! Presets modeling the DDoS tools the paper surveys (§4.2).
//!
//! "With the appearance of Trinoo, which only implements UDP packet
//! flooding, many tools have been developed … Most of them, such as Tribe
//! Flood Network (TFN), TFN2K, Trinity, Plague and Shaft, generate TCP SYN
//! flooding attacks." Their coordination differs (direct commands,
//! encrypted channels, IRC), but "their flooding behaviors are similar in
//! that the SYN packets are continuously sent to the victim" — which the
//! presets reflect: all emit continuous SYN streams, differing only in
//! spoofing granularity and burst shape as documented for each tool.

use std::net::SocketAddrV4;

use syndog_fingerprint::{
    layout_from_codes, FingerprintKey, OPT_MSS, QUIRK_ACK_NONZERO, QUIRK_PUSH, QUIRK_SEQ_ZERO,
};
use syndog_sim::{SimDuration, SimTime};

use crate::flood::{FloodPattern, SpoofStrategy, SynFlood};

/// The attack tools the paper names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackTool {
    /// Tribe Flood Network: straightforward constant SYN stream, fully
    /// random spoofed sources.
    Tfn,
    /// TFN2K: adds randomized inter-packet timing (slightly bursty) and
    /// keeps fully random spoofing.
    Tfn2k,
    /// Trinity: IRC-controlled; constant stream, random spoofing.
    Trinity,
    /// Shaft: emits in short pulses and can re-randomize rates.
    Shaft,
    /// Plague: constant stream, unroutable spoofing.
    Plague,
    /// Trinoo: the UDP-only ancestor — included so experiments can show
    /// SYN-dog correctly *ignores* non-TCP floods.
    Trinoo,
}

impl AttackTool {
    /// Whether the tool floods with TCP SYNs (Trinoo does not).
    pub fn uses_syn_flooding(&self) -> bool {
        !matches!(self, AttackTool::Trinoo)
    }

    /// The tool's constant SYN header template as a packed fingerprint.
    ///
    /// Real flooding tools craft SYNs from a fixed template rather than a
    /// kernel TCP stack, so every packet shares one telltale fingerprint:
    /// a raw window the tool hardcodes, the default raw-socket TTL, few or
    /// no TCP options, and sloppy header hygiene (zeroed sequence numbers,
    /// stray ACK/PSH bits) that no OS stack produces. Returns `None` for
    /// [`AttackTool::Trinoo`], which does not send SYNs at all.
    pub fn fingerprint(&self) -> Option<FingerprintKey> {
        let mss_only = layout_from_codes(&[OPT_MSS]);
        match self {
            // TFN builds SYNs with seq = 0 straight off a raw socket.
            AttackTool::Tfn => Some(FingerprintKey::new(255, 512, 0, 0, QUIRK_SEQ_ZERO)),
            // TFN2K randomizes payloads but keeps a bare, option-less SYN.
            AttackTool::Tfn2k => Some(FingerprintKey::new(255, 1024, 0, 0, 0)),
            // Trinity leaves a stale ACK field from its template buffer.
            AttackTool::Trinity => Some(FingerprintKey::new(
                128,
                4096,
                536,
                mss_only,
                QUIRK_ACK_NONZERO,
            )),
            AttackTool::Shaft => Some(FingerprintKey::new(255, 8192, 0, 0, QUIRK_SEQ_ZERO)),
            // Plague sets PSH on everything, handshake included.
            AttackTool::Plague => Some(FingerprintKey::new(64, 2048, 1400, mss_only, QUIRK_PUSH)),
            AttackTool::Trinoo => None,
        }
    }

    /// Builds this tool's characteristic flooder.
    ///
    /// # Panics
    ///
    /// Panics if called for [`AttackTool::Trinoo`], which does not SYN
    /// flood; model its UDP stream separately.
    pub fn flood(
        &self,
        rate: f64,
        start: SimTime,
        duration: SimDuration,
        target: SocketAddrV4,
    ) -> SynFlood {
        assert!(
            self.uses_syn_flooding(),
            "trinoo floods UDP, not SYN; it has no SYN flooder"
        );
        let base = SynFlood::constant(rate, start, duration, target)
            .with_fp(self.fingerprint().map_or(0, |k| k.to_bits()));
        match self {
            AttackTool::Tfn | AttackTool::Trinity => base.with_spoof(SpoofStrategy::RandomAny),
            AttackTool::Tfn2k => {
                base.with_spoof(SpoofStrategy::RandomAny)
                    .with_pattern(FloodPattern::OnOff {
                        on_secs: 45.0,
                        off_secs: 5.0,
                    })
            }
            AttackTool::Shaft => base.with_pattern(FloodPattern::Pulsed {
                pulse_secs: 5.0,
                interval_secs: 15.0,
            }),
            AttackTool::Plague => base.with_spoof(SpoofStrategy::RandomUnroutable),
            AttackTool::Trinoo => unreachable!("guarded by uses_syn_flooding"),
        }
    }
}

impl std::fmt::Display for AttackTool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            AttackTool::Tfn => "TFN",
            AttackTool::Tfn2k => "TFN2K",
            AttackTool::Trinity => "Trinity",
            AttackTool::Shaft => "Shaft",
            AttackTool::Plague => "Plague",
            AttackTool::Trinoo => "Trinoo",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_sim::SimRng;

    /// Every SYN-capable tool.
    const SYN_TOOLS: [AttackTool; 5] = [
        AttackTool::Tfn,
        AttackTool::Tfn2k,
        AttackTool::Trinity,
        AttackTool::Shaft,
        AttackTool::Plague,
    ];

    fn victim() -> SocketAddrV4 {
        "192.0.2.80:80".parse().unwrap()
    }

    #[test]
    fn all_syn_tools_flood_at_the_requested_volume() {
        let mut rng = SimRng::seed_from_u64(1);
        for tool in SYN_TOOLS {
            let flood = tool.flood(80.0, SimTime::ZERO, SimDuration::from_secs(600), victim());
            let volume = flood.generate_times(&mut rng).len() as f64;
            assert!(
                (volume / 48_000.0 - 1.0).abs() < 0.07,
                "{tool}: volume {volume}"
            );
        }
    }

    #[test]
    fn trinoo_is_not_syn_capable() {
        assert!(!AttackTool::Trinoo.uses_syn_flooding());
        assert!(SYN_TOOLS.iter().all(AttackTool::uses_syn_flooding));
    }

    #[test]
    #[should_panic(expected = "trinoo")]
    fn trinoo_flood_panics() {
        let _ = AttackTool::Trinoo.flood(1.0, SimTime::ZERO, SimDuration::from_secs(1), victim());
    }

    #[test]
    fn shaft_pulses_and_plague_spoofs_unroutable() {
        let shaft =
            AttackTool::Shaft.flood(50.0, SimTime::ZERO, SimDuration::from_secs(60), victim());
        assert!(matches!(shaft.pattern, FloodPattern::Pulsed { .. }));
        let plague =
            AttackTool::Plague.flood(50.0, SimTime::ZERO, SimDuration::from_secs(60), victim());
        assert_eq!(plague.spoof, SpoofStrategy::RandomUnroutable);
    }

    #[test]
    fn every_syn_tool_has_a_distinct_constant_fingerprint() {
        let mut seen = std::collections::HashSet::new();
        for tool in SYN_TOOLS {
            let key = tool.fingerprint().expect("SYN tools have fingerprints");
            assert!(seen.insert(key.to_bits()), "{tool} fingerprint collides");
            // Every flood record carries exactly the tool's fingerprint.
            let flood = tool.flood(20.0, SimTime::ZERO, SimDuration::from_secs(5), victim());
            assert_eq!(flood.fp, key.to_bits());
        }
        assert!(AttackTool::Trinoo.fingerprint().is_none());
    }

    #[test]
    fn display_names() {
        assert_eq!(AttackTool::Tfn2k.to_string(), "TFN2K");
        assert_eq!(AttackTool::Plague.to_string(), "Plague");
    }
}
