//! The per-interface sniffer: a stateless set of counters.
//!
//! "Neither state nor state computation is involved in our SYN-dog. Only
//! two new variables are introduced to measure the number of received SYN
//! and SYN/ACK packets at the inbound and outbound interfaces" (§1). A
//! [`Sniffer`] is that, widened to one counter per [`SegmentKind`]: it
//! takes each frame's §2 classification and bumps the counter at the
//! kind's index, with no branch on the kind. Its memory footprint is
//! constant no matter how hard it is flooded — the property that makes
//! SYN-dog itself immune to the attacks it detects.

use syndog::PeriodSignals;
use syndog_net::classify::SegmentKind;

/// Counts per [`SegmentKind`], indexed by [`SegmentKind::index`].
type KindCounts = [u64; SegmentKind::ALL.len()];

/// A stateless per-kind segment counter for one router interface.
///
/// By the paper's arrangement, the *outbound* sniffer's SYN count and the
/// *inbound* sniffer's SYN/ACK count are what the detector consumes; both
/// counters exist on both interfaces so bidirectional sites (LBL,
/// Harvard) can be measured too. The FIN and RST counts give the SYN–FIN
/// pairing strategy real per-period [`syndog::SynFinCounts`]. The other
/// kinds are counted too, because a flat increment is cheaper than
/// deciding not to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sniffer {
    /// The open period's counts, reset by [`Sniffer::take_counts`].
    period: KindCounts,
    frames_seen: u64,
    malformed: u64,
    /// Lifetime tally per [`SegmentKind`] — the telemetry subsystem reads
    /// these at period close to keep `syndog_segments_total` current.
    /// Still constant-size: the statelessness claim holds.
    kinds: KindCounts,
}

impl Sniffer {
    /// Records one classified segment (a trace record, or a frame the
    /// capture front end classified with the §2 algorithm).
    pub fn observe_kind(&mut self, kind: SegmentKind) {
        self.frames_seen += 1;
        self.period[kind.index()] += 1;
        self.kinds[kind.index()] += 1;
    }

    /// Records a frame that failed classification. Malformed frames are
    /// counted separately and otherwise ignored: a sniffer on a live
    /// interface must never fail.
    pub fn observe_malformed(&mut self) {
        self.frames_seen += 1;
        self.malformed += 1;
    }

    /// Current SYN count since the last [`Sniffer::take_counts`].
    pub fn syn_count(&self) -> u64 {
        self.period[SegmentKind::Syn.index()]
    }

    /// Current SYN/ACK count since the last [`Sniffer::take_counts`].
    pub fn synack_count(&self) -> u64 {
        self.period[SegmentKind::SynAck.index()]
    }

    /// Current FIN count since the last [`Sniffer::take_counts`].
    pub fn fin_count(&self) -> u64 {
        self.period[SegmentKind::Fin.index()]
    }

    /// Current RST count since the last [`Sniffer::take_counts`].
    pub fn rst_count(&self) -> u64 {
        self.period[SegmentKind::Rst.index()]
    }

    /// Total frames observed (lifetime, not reset by `take_counts`).
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Frames that failed classification (lifetime).
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Lifetime count of well-formed frames of the given kind (not reset
    /// by [`Sniffer::take_counts`]).
    pub fn kind_count(&self, kind: SegmentKind) -> u64 {
        self.kinds[kind.index()]
    }

    /// Overwrites every counter from a captured checkpoint — the restore
    /// half of [`crate::checkpoint`]. `signals` are the *pending* (since
    /// last [`Sniffer::take_counts`]) counts; the rest are lifetime
    /// tallies.
    pub(crate) fn restore_counts(
        &mut self,
        signals: PeriodSignals,
        frames_seen: u64,
        malformed: u64,
        kinds: KindCounts,
    ) {
        self.period = [0; SegmentKind::ALL.len()];
        self.period[SegmentKind::Syn.index()] = signals.syn;
        self.period[SegmentKind::SynAck.index()] = signals.synack;
        self.period[SegmentKind::Fin.index()] = signals.fin;
        self.period[SegmentKind::Rst.index()] = signals.rst;
        self.frames_seen = frames_seen;
        self.malformed = malformed;
        self.kinds = kinds;
    }

    /// Returns the period's counts and resets them — the "periodically
    /// exchange the counting information" step.
    pub fn take_counts(&mut self) -> PeriodSignals {
        let period = std::mem::take(&mut self.period);
        PeriodSignals {
            syn: period[SegmentKind::Syn.index()],
            synack: period[SegmentKind::SynAck.index()],
            fin: period[SegmentKind::Fin.index()],
            rst: period[SegmentKind::Rst.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_net::classify::classify;
    use syndog_net::packet::PacketBuilder;
    use syndog_net::TcpFlags;

    /// Classifies one frame and counts it, as the capture front ends do.
    fn observe(sniffer: &mut Sniffer, frame: &[u8]) {
        match classify(frame) {
            Ok(kind) => sniffer.observe_kind(kind),
            Err(_) => sniffer.observe_malformed(),
        }
    }

    fn frame(flags: TcpFlags) -> Vec<u8> {
        PacketBuilder::tcp(
            "10.0.0.1:1025".parse().unwrap(),
            "192.0.2.80:80".parse().unwrap(),
            flags,
        )
        .build()
        .unwrap()
    }

    #[test]
    fn counts_only_handshake_signals() {
        let mut sniffer = Sniffer::default();
        observe(&mut sniffer, &frame(TcpFlags::SYN));
        observe(&mut sniffer, &frame(TcpFlags::SYN | TcpFlags::ACK));
        observe(&mut sniffer, &frame(TcpFlags::ACK));
        observe(&mut sniffer, &frame(TcpFlags::RST));
        observe(&mut sniffer, &frame(TcpFlags::FIN | TcpFlags::ACK));
        assert_eq!(sniffer.syn_count(), 1);
        assert_eq!(sniffer.synack_count(), 1);
        assert_eq!(sniffer.frames_seen(), 5);
        assert_eq!(sniffer.malformed(), 0);
        assert_eq!(sniffer.kind_count(SegmentKind::Syn), 1);
        assert_eq!(sniffer.kind_count(SegmentKind::SynAck), 1);
        assert_eq!(sniffer.kind_count(SegmentKind::Ack), 1);
        assert_eq!(sniffer.kind_count(SegmentKind::Rst), 1);
        assert_eq!(sniffer.kind_count(SegmentKind::Fin), 1);
        assert_eq!(sniffer.fin_count(), 1);
        assert_eq!(sniffer.rst_count(), 1);
        let lifetime: u64 = SegmentKind::ALL
            .iter()
            .map(|&k| sniffer.kind_count(k))
            .sum();
        assert_eq!(lifetime, 5, "per-kind tallies partition well-formed frames");
    }

    #[test]
    fn take_counts_resets_period_counters_only() {
        let mut sniffer = Sniffer::default();
        for _ in 0..3 {
            observe(&mut sniffer, &frame(TcpFlags::SYN));
        }
        observe(&mut sniffer, &frame(TcpFlags::FIN | TcpFlags::ACK));
        observe(&mut sniffer, &frame(TcpFlags::RST));
        let sample = sniffer.take_counts();
        assert_eq!(
            sample,
            PeriodSignals {
                syn: 3,
                synack: 0,
                fin: 1,
                rst: 1
            }
        );
        assert_eq!(sniffer.syn_count(), 0);
        assert_eq!(sniffer.fin_count(), 0);
        assert_eq!(sniffer.rst_count(), 0);
        assert_eq!(sniffer.frames_seen(), 5, "lifetime counter survives");
        observe(&mut sniffer, &frame(TcpFlags::SYN));
        assert_eq!(sniffer.take_counts().syn, 1);
    }

    #[test]
    fn malformed_frames_never_panic_or_count_as_handshake() {
        let mut sniffer = Sniffer::default();
        observe(&mut sniffer, &[0u8; 3]);
        observe(&mut sniffer, &[]);
        let truncated = &frame(TcpFlags::SYN)[..20];
        observe(&mut sniffer, truncated);
        assert_eq!(sniffer.syn_count(), 0);
        assert_eq!(sniffer.malformed(), 3);
    }

    #[test]
    fn state_size_is_constant_under_flood() {
        // The statelessness claim, made concrete: the sniffer's size does
        // not depend on how many packets (or distinct sources) it has seen.
        let mut sniffer = Sniffer::default();
        let before = std::mem::size_of_val(&sniffer);
        for i in 0..10_000u32 {
            let syn = PacketBuilder::tcp(
                std::net::SocketAddrV4::new(std::net::Ipv4Addr::from(i), 1024),
                "192.0.2.80:80".parse().unwrap(),
                TcpFlags::SYN,
            )
            .build()
            .unwrap();
            observe(&mut sniffer, &syn);
        }
        assert_eq!(std::mem::size_of_val(&sniffer), before);
        assert_eq!(sniffer.syn_count(), 10_000);
    }
}
