//! The TCP three-way-handshake state machine as seen from the leaf router.
//!
//! SYN-dog's signal is the pairing of outgoing SYNs with incoming SYN/ACKs
//! "within one RTT" (§3.1); its noise is everything that breaks the
//! pairing: servers dropping SYNs under load, forwarding-path congestion
//! losing SYNs or SYN/ACKs, and the client's retransmissions (which emit
//! *extra* SYNs). [`simulate_handshake`] reproduces those mechanics per
//! connection attempt, emitting each control segment through a caller sink
//! so the same logic drives both full trace generation and fast
//! count-level simulation.
//! A SYN/ACK reaches the sink with its RTT drawn but not evaluated, and
//! [`Segment::period_index`] evaluates it only if it could cross a period.

use syndog_net::SegmentKind;
use syndog_sim::{LogNormal, LogNormalDraw, SimDuration, SimRng, SimTime};

use crate::trace::Direction;

/// Parameters of the handshake and its failure modes.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionParams {
    /// Probability, per SYN transmission, that no SYN/ACK is ever generated
    /// — the server dropped the SYN, or the forward path lost it (the two
    /// discrepancy causes §1 lists).
    pub p_syn_drop: f64,
    /// Probability, per generated SYN/ACK, that it is lost before reaching
    /// the inbound sniffer.
    pub p_synack_loss: f64,
    /// Total SYN transmissions before the client gives up; the classical
    /// BSD behaviour the paper cites ("the failure of two retransmissions")
    /// is 3.
    pub max_syn_transmissions: u32,
    /// Delay before the k-th retransmission, seconds after the previous
    /// transmission (exponential backoff: 3 s, 6 s, …).
    pub syn_backoff_secs: Vec<f64>,
    /// Log-normal RTT, in seconds.
    pub rtt: LogNormal,
}

impl ConnectionParams {
    /// A well-behaved Internet path: ~1.2% SYN drop, ~0.5% SYN/ACK loss,
    /// median RTT ≈ 120 ms.
    pub fn clean() -> Self {
        ConnectionParams {
            p_syn_drop: 0.012,
            p_synack_loss: 0.005,
            max_syn_transmissions: 3,
            syn_backoff_secs: vec![3.0, 6.0],
            rtt: LogNormal::new((0.12f64).ln(), 0.35),
        }
    }

    /// Returns a copy with the two loss probabilities replaced.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1)`.
    pub fn with_losses(mut self, p_syn_drop: f64, p_synack_loss: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p_syn_drop),
            "p_syn_drop out of range: {p_syn_drop}"
        );
        assert!(
            (0.0..1.0).contains(&p_synack_loss),
            "p_synack_loss out of range: {p_synack_loss}"
        );
        self.p_syn_drop = p_syn_drop;
        self.p_synack_loss = p_synack_loss;
        self
    }

    /// Per-transmission probability that a SYN is answered by a SYN/ACK
    /// *seen at the inbound sniffer*.
    pub fn p_answered(&self) -> f64 {
        (1.0 - self.p_syn_drop) * (1.0 - self.p_synack_loss)
    }

    /// Expected SYNs emitted per connection attempt.
    pub fn expected_syns(&self) -> f64 {
        let q = self.p_answered();
        let mut total = 0.0;
        let mut p_reach = 1.0; // probability the k-th transmission happens
        for _ in 0..self.max_syn_transmissions {
            total += p_reach;
            p_reach *= 1.0 - q;
        }
        total
    }

    /// Expected SYN/ACKs observed per connection attempt.
    pub fn expected_synacks(&self) -> f64 {
        self.p_answered() * self.expected_syns()
    }

    /// The residual normal-operation mean `c = E[Δ]/E[SYN/ACK]` this
    /// parameter set induces — the quantity the paper's `a = 0.35` must
    /// stay above.
    pub fn residual_mean(&self) -> f64 {
        let syns = self.expected_syns();
        let synacks = self.expected_synacks();
        (syns - synacks) / synacks
    }
}

/// A control segment the leaf router sees, as [`simulate_handshake`] emits it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Direction of travel.
    pub direction: Direction,
    /// Segment classification.
    pub kind: SegmentKind,
    /// When the segment, or a pending SYN/ACK's SYN, was sent.
    sent: SimTime,
    rtt: Option<LogNormalDraw>,
}

impl Segment {
    fn at(time: SimTime, direction: Direction, kind: SegmentKind) -> Self {
        Segment {
            direction,
            kind,
            sent: time,
            rtt: None,
        }
    }

    /// When the segment crosses the router; evaluates a pending RTT.
    pub fn time(&self) -> SimTime {
        match &self.rtt {
            Some(rtt) => self.sent + SimDuration::from_secs_f64(rtt.value()),
            None => self.sent,
        }
    }

    /// `self.time().period_index(period)`, without evaluating a pending RTT
    /// that cannot reach the next period boundary.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn period_index(&self, period: SimDuration) -> u64 {
        match &self.rtt {
            Some(rtt) if !stays_in_period(self.sent, rtt, period) => self.time(),
            _ => self.sent,
        }
        .period_index(period)
    }
}

/// Whether `sent + rtt` lies in `sent`'s period for every value `rtt` can
/// take: the largest, rounded to the µs as [`Segment::time`] rounds, falls
/// short of the next boundary.
fn stays_in_period(sent: SimTime, rtt: &LogNormalDraw, period: SimDuration) -> bool {
    let to_boundary = period.as_micros() - sent.as_micros() % period.as_micros();
    rtt.max().is_finite() && SimDuration::from_secs_f64(rtt.max()).as_micros() < to_boundary
}

/// Simulates one client connection attempt starting at `start`, emitting
/// every control segment the leaf router would see through `sink`: the
/// SYNs and SYN/ACK, and with `data_segments` the client ACK and a FIN/ACK
/// teardown pair of an established connection, so generated traces carry
/// realistic non-SYN traffic for the classifier to sift.
///
/// The client is inside the stub network (SYNs travel outbound) and the
/// server outside (SYN/ACKs travel inbound), matching the paper's Figure 6
/// topology.
#[inline]
pub fn simulate_handshake(
    start: SimTime,
    params: &ConnectionParams,
    data_segments: bool,
    rng: &mut SimRng,
    mut sink: impl FnMut(Segment),
) {
    use {Direction::*, SegmentKind::*};
    let mut at = start;
    for attempt in 0..params.max_syn_transmissions.max(1) {
        sink(Segment::at(at, Outbound, Syn));
        let rtt = rng.log_normal_draw(&params.rtt);
        let answered = !rng.chance(params.p_syn_drop);
        if answered && !rng.chance(params.p_synack_loss) {
            if !data_segments {
                sink(Segment {
                    rtt: Some(rtt),
                    ..Segment::at(at, Inbound, SynAck)
                });
                break;
            }
            let rtt = SimDuration::from_secs_f64(rtt.value());
            let synack_at = at + rtt;
            let ack_at = synack_at + SimDuration::from_millis(1);
            // A short exchange followed by an orderly teardown.
            let fin_at = ack_at + SimDuration::from_secs_f64(rng.exponential(1.0 / 8.0));
            for (time, direction, kind) in [
                (synack_at, Inbound, SynAck),
                (ack_at, Outbound, Ack),
                (fin_at, Outbound, Fin),
                (fin_at + rtt, Inbound, Fin),
                (fin_at + rtt + SimDuration::from_millis(1), Outbound, Ack),
            ] {
                sink(Segment::at(time, direction, kind));
            }
            break;
        }
        // No SYN/ACK within the timeout: back off and retransmit.
        let backoff = params
            .syn_backoff_secs
            .get(attempt as usize)
            .copied()
            .unwrap_or_else(|| params.syn_backoff_secs.last().copied().unwrap_or(3.0));
        at += SimDuration::from_secs_f64(backoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collect(params: &ConnectionParams, seed: u64) -> Vec<(SimTime, Direction, SegmentKind)> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut events = Vec::new();
        simulate_handshake(SimTime::from_secs(10), params, true, &mut rng, |s| {
            events.push((s.time(), s.direction, s.kind))
        });
        events
    }

    /// The SYNs and SYN/ACKs one connection attempt emits.
    fn tally(params: &ConnectionParams, rng: &mut SimRng) -> (u32, u32) {
        let mut kinds = Vec::new();
        simulate_handshake(SimTime::ZERO, params, true, rng, |s| kinds.push(s.kind));
        let count = |kind| kinds.iter().filter(|&&k| k == kind).count() as u32;
        (count(SegmentKind::Syn), count(SegmentKind::SynAck))
    }

    #[test]
    fn lossless_handshake_emits_full_lifecycle() {
        let params = ConnectionParams::clean().with_losses(0.0, 0.0);
        let events = collect(&params, 1);
        let kinds: Vec<SegmentKind> = events.iter().map(|e| e.2).collect();
        assert_eq!(
            kinds,
            vec![
                SegmentKind::Syn,
                SegmentKind::SynAck,
                SegmentKind::Ack,
                SegmentKind::Fin,
                SegmentKind::Fin,
                SegmentKind::Ack,
            ]
        );
        // SYN outbound, SYN/ACK inbound, one RTT apart.
        assert_eq!(events[0].1, Direction::Outbound);
        assert_eq!(events[1].1, Direction::Inbound);
        assert!(events[1].0 > events[0].0);
        // Events are what the router sees; they must be time-ordered.
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn total_loss_exhausts_retransmissions() {
        let params = ConnectionParams::clean().with_losses(0.999_999, 0.0);
        let events = collect(&params, 2);
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.2 == SegmentKind::Syn));
        // Backoff schedule: 3 s then 6 s.
        let t0 = events[0].0.as_secs_f64();
        assert!((events[1].0.as_secs_f64() - t0 - 3.0).abs() < 1e-6);
        assert!((events[2].0.as_secs_f64() - t0 - 9.0).abs() < 1e-6);
    }

    #[test]
    fn synack_loss_produces_syn_excess_without_synacks() {
        // SYN always reaches the server, but the SYN/ACK never arrives:
        // the sniffers see SYNs with zero SYN/ACKs — exactly a flood's
        // signature, which is why path pathologies set the noise floor.
        let params = ConnectionParams::clean().with_losses(0.0, 0.999_999);
        let events = collect(&params, 3);
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.2 == SegmentKind::Syn));
    }

    #[test]
    fn expected_counts_match_simulation() {
        let params = ConnectionParams::clean().with_losses(0.05, 0.02);
        let mut rng = SimRng::seed_from_u64(4);
        let trials = 40_000;
        let mut syn_total = 0u64;
        let mut synack_total = 0u64;
        for _ in 0..trials {
            let (syns, synacks) = tally(&params, &mut rng);
            syn_total += u64::from(syns);
            synack_total += u64::from(synacks);
        }
        let syn_mean = syn_total as f64 / trials as f64;
        let synack_mean = synack_total as f64 / trials as f64;
        assert!(
            (syn_mean - params.expected_syns()).abs() < 0.01,
            "syn {syn_mean}"
        );
        assert!(
            (synack_mean - params.expected_synacks()).abs() < 0.01,
            "synack {synack_mean}"
        );
    }

    #[test]
    fn residual_mean_is_positive_and_small() {
        let c = ConnectionParams::clean().residual_mean();
        assert!(c > 0.0 && c < 0.1, "residual c = {c}");
        // Heavier losses raise the residual.
        let heavy = ConnectionParams::clean()
            .with_losses(0.06, 0.03)
            .residual_mean();
        assert!(heavy > c);
    }

    #[test]
    fn at_most_one_synack_per_attempt() {
        let params = ConnectionParams::clean();
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..2000 {
            let (syns, synacks) = tally(&params, &mut rng);
            assert!(synacks <= 1);
            assert!((1..=3).contains(&syns));
        }
    }

    #[test]
    fn disabling_data_segments_emits_handshake_only() {
        let params = ConnectionParams::clean().with_losses(0.0, 0.0);
        let mut kinds = Vec::new();
        let mut rng = SimRng::seed_from_u64(6);
        simulate_handshake(SimTime::ZERO, &params, false, &mut rng, |s| {
            kinds.push(s.kind)
        });
        assert_eq!(kinds, [SegmentKind::Syn, SegmentKind::SynAck]);
    }

    #[test]
    fn most_clean_path_rtts_are_never_evaluated_for_a_20_s_period() {
        // 98.9% of RTTs are bounded by ~0.34 s and the rest by ~2.4 s: only
        // SYNs sent in a period's last fraction of a second need theirs.
        let mut rng = SimRng::seed_from_u64(8);
        let skipped = (0..20_000)
            .filter(|_| {
                let sent = SimTime::from_micros(rng.uniform_u64(0, 3_600_000_000));
                let rtt = rng.log_normal_draw(&ConnectionParams::clean().rtt);
                stays_in_period(sent, &rtt, SimDuration::from_secs(20))
            })
            .count();
        assert!((19_400..19_800).contains(&skipped), "skipped {skipped}");
    }

    proptest! {
        /// Whenever `period_index` skips the RTT, the evaluated SYN/ACK
        /// lands in the SYN's period; either way the two agree.
        #[test]
        fn a_skipped_rtt_never_crosses_a_period(
            seed in any::<u64>(),
            mu in -6.0f64..2.0,
            sigma in prop_oneof![Just(0.0f64), 0.0f64..2.0],
            period_secs in prop_oneof![Just(1u64), Just(20u64), Just(60u64)],
            boundary in 1u64..1_000_000_000,
        ) {
            let period = SimDuration::from_secs(period_secs);
            let dist = LogNormal::new(mu, sigma);
            let mut rng = SimRng::seed_from_u64(seed);
            // The clean-path bound, which most draws' `max()` returns.
            let clean = SimDuration::from_secs_f64((mu + sigma * 3.01).exp()).as_micros();
            for i in 0..64 {
                let rtt = rng.log_normal_draw(&dist);
                // Every other SYN is sent anywhere; the rest within twice the
                // draw's bound before a boundary, or within 1 µs of that
                // bound or of the clean-path bound.
                let max = SimDuration::from_secs_f64(rtt.max()).as_micros();
                let near = |bound: u64, rng: &mut SimRng| {
                    bound.saturating_add(rng.uniform_u64(0, 3)).saturating_sub(1)
                };
                let back = match i % 8 {
                    1 | 5 => rng.uniform_u64(0, max.saturating_mul(2).max(1)),
                    7 => near(clean, &mut rng),
                    _ => near(max, &mut rng),
                };
                let boundary = boundary * period.as_micros();
                let sent = SimTime::from_micros(match i % 2 {
                    0 => rng.uniform_u64(0, u64::MAX),
                    _ => boundary - back.min(boundary),
                });
                let synack = Segment {
                    rtt: Some(rtt),
                    ..Segment::at(sent, Direction::Inbound, SegmentKind::SynAck)
                };
                let evaluated = synack.time().period_index(period);
                if stays_in_period(sent, &rtt, period) {
                    prop_assert_eq!(evaluated, sent.period_index(period));
                }
                prop_assert_eq!(synack.period_index(period), evaluated);
            }
        }
    }

    #[test]
    fn backoff_schedule_reuses_last_entry_when_short() {
        let mut params = ConnectionParams::clean().with_losses(0.999_999, 0.0);
        params.max_syn_transmissions = 4;
        params.syn_backoff_secs = vec![2.0];
        let events = collect(&params, 7);
        assert_eq!(events.len(), 4);
        let t: Vec<f64> = events.iter().map(|e| e.0.as_secs_f64()).collect();
        assert!((t[1] - t[0] - 2.0).abs() < 1e-6);
        assert!((t[3] - t[2] - 2.0).abs() < 1e-6);
    }
}
