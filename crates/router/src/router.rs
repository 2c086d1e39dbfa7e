//! A simulated leaf router connecting a stub network to the Internet.
//!
//! The router owns the two sniffers (Figure 2's structure), knows its stub
//! prefix, and slices time into observation periods. It can be driven two
//! ways:
//!
//! - **record-driven** — [`LeafRouter::advance_to`] then
//!   [`LeafRouter::observe_record`] over [`TraceRecord`]s, already
//!   classified and direction-tagged; the agent's record loop
//!   ([`SynDogAgent::run_trace_with`](crate::agent::SynDogAgent::run_trace_with))
//!   drives every record stream this way,
//! - **frame-driven** — [`LeafRouter::ingest`] over a [`FrameSource`] (a
//!   pcap capture), whose events carry the §2 classifier's verdict.
//!
//! Period boundaries are handled exactly: a record at `t` lands in period
//! `⌊t / t0⌋`, and [`LeafRouter::advance_to`] closes every period that
//! ends at or before the new time, emitting one [`PeriodSignals`] each.
//! A record inside the open period's µs bounds is placed by two compares;
//! any other takes a cold path that applies `⌊t / t0⌋` itself. The clock
//! only moves forward: a record older than the open period (reordered or
//! jittered) is counted in the open period, and tallied as late
//! ([`LeafRouter::late`]). Where a stream ends is the span rule's
//! business: a declared span (a binary trace's duration) closes
//! `⌈span / t0⌉` periods and skips the records past it; without one (a
//! pcap), the last period closed is the one holding the latest record.

use syndog::PeriodSignals;
use syndog_net::Ipv4Net;
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::trace::{Direction, Trace, TraceRecord};

use crate::sniffer::Sniffer;
use crate::source::{EventBatch, FrameEvent, FrameSource};

/// A leaf router with SYN-dog sniffers on both interfaces.
#[derive(Debug, Clone)]
pub struct LeafRouter {
    stub: Ipv4Net,
    period: SimDuration,
    /// The two interfaces' sniffers, indexed by [`Direction`]'s
    /// declaration order (inbound, outbound), so a record picks its
    /// sniffer without a branch.
    sniffers: [Sniffer; 2],
    current_period: u64,
    /// The open period's bounds in µs; empty where they overflow a `u64`.
    open: std::ops::Range<u64>,
    /// A per-run tally, not checkpointed.
    late: u64,
}

impl LeafRouter {
    /// Creates a router for the given stub prefix and observation period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(stub: Ipv4Net, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "observation period must be non-zero");
        LeafRouter {
            stub,
            period,
            sniffers: Default::default(),
            current_period: 0,
            open: 0..period.as_micros(),
            late: 0,
        }
    }

    /// The stub network this router serves.
    pub fn stub(&self) -> Ipv4Net {
        self.stub
    }

    /// The observation period `t0`.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Index of the period currently being accumulated.
    pub fn current_period(&self) -> u64 {
        self.current_period
    }

    /// How many records or frames arrived behind the clock, in a period
    /// already closed, and were counted in the open one.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// The sniffer on the given interface.
    pub fn sniffer(&self, direction: Direction) -> &Sniffer {
        &self.sniffers[direction as usize]
    }

    /// The sniffer on the given interface, mutably: for the tally and for
    /// checkpoint restore.
    pub(crate) fn sniffer_mut(&mut self, direction: Direction) -> &mut Sniffer {
        &mut self.sniffers[direction as usize]
    }

    /// Rewinds/forwards the period clock to an absolute index — only
    /// checkpoint restore may do this; normal operation moves the clock
    /// through [`LeafRouter::advance_to`] / [`LeafRouter::take_period_sample`].
    pub(crate) fn set_current_period(&mut self, period: u64) {
        self.current_period = period;
        self.open_bounds();
    }

    fn open_bounds(&mut self) {
        let t0 = self.period.as_micros();
        let until = self
            .current_period
            .checked_add(1)
            .and_then(|n| n.checked_mul(t0));
        self.open = until.map_or(0..0, |until| until - t0..until);
    }

    /// Advances the router clock to `now`, closing every period that ends
    /// at or before it and pushing one sample per closed period into
    /// `out` (empty periods included — silence is data).
    #[inline]
    pub fn advance_to(&mut self, now: SimTime, out: &mut Vec<PeriodSignals>) {
        for _ in 0..self.periods_due(now) {
            out.push(self.take_period_sample());
        }
    }

    /// How many open periods end at or before `now`: the ones a record at
    /// `now` closes. A `now` in a period already closed closes none and is
    /// counted late.
    #[inline]
    pub(crate) fn periods_due(&mut self, now: SimTime) -> u64 {
        if self.open.contains(&now.as_micros()) {
            return 0;
        }
        self.periods_due_outside(now)
    }

    #[cold]
    fn periods_due_outside(&mut self, now: SimTime) -> u64 {
        let target = now.period_index(self.period);
        if target < self.current_period {
            self.late += 1;
        }
        target.saturating_sub(self.current_period)
    }

    /// Closes the current period unconditionally and returns its signals:
    /// outbound SYNs paired with inbound SYN/ACKs per §3.1, plus the
    /// outbound FIN/RST closes the SYN–FIN strategy pairs against.
    pub fn take_period_sample(&mut self) -> PeriodSignals {
        let [inbound, outbound] = &mut self.sniffers;
        let in_counts = inbound.take_counts();
        let out_counts = outbound.take_counts();
        self.current_period += 1;
        self.open_bounds();
        PeriodSignals {
            syn: out_counts.syn,
            synack: in_counts.synack,
            fin: out_counts.fin,
            rst: out_counts.rst,
        }
    }

    /// Record-driven input: counts one pre-classified record in the open
    /// period. Call [`LeafRouter::advance_to`] with the record's time first
    /// (or use [`LeafRouter::run_trace`], which does both); the clock only
    /// moves forward, so a record older than the open period counts there.
    pub fn observe_record(&mut self, record: &TraceRecord) {
        self.sniffer_mut(record.direction).observe_kind(record.kind);
    }

    /// Routes one classified event to the right sniffer (malformed events
    /// are tallied without touching the period counts).
    pub fn observe_event(&mut self, event: &FrameEvent) {
        let sniffer = self.sniffer_mut(event.direction);
        match event.kind {
            Some(kind) => sniffer.observe_kind(kind),
            None => sniffer.observe_malformed(),
        }
    }

    /// Drives a [`FrameSource`] to exhaustion through the router: each
    /// event advances the clock to its time and is tallied in the open
    /// period. Each closed period pushes one sample into `samples` (empty
    /// periods included — silence is data); a stream declares no end, so
    /// the period holding the last event is left open.
    ///
    /// # Errors
    ///
    /// Propagates source I/O errors. Periods closed before the error
    /// remain in `samples`.
    pub fn ingest<S: FrameSource>(
        &mut self,
        mut source: S,
        samples: &mut Vec<PeriodSignals>,
    ) -> Result<(), syndog_net::NetError> {
        let mut batch = EventBatch::new();
        while source.next_batch(&mut batch)? {
            for event in batch.events() {
                self.advance_to(event.time, samples);
                self.observe_event(event);
            }
        }
        Ok(())
    }

    /// Runs a whole trace through the router under the span rule of its
    /// duration, returning one sample per period closed.
    pub fn run_trace(&mut self, trace: &Trace) -> Vec<PeriodSignals> {
        let mut samples = Vec::new();
        let mut span = SpanRule::new(Some(trace.duration()), self.period);
        for record in trace.records() {
            if span.admits(record.time) {
                self.advance_to(record.time, &mut samples);
                self.observe_record(record);
            }
        }
        let last = span.last(self.current_period);
        while self.current_period < last {
            samples.push(self.take_period_sample());
        }
        samples
    }
}

/// Where a record stream ends, the one rule every record loop follows. A
/// declared span (a binary trace's duration) closes `⌈span / t0⌉` periods
/// and skips the records past it (handshake tails). Without one (a pcap),
/// the last period closed is the one holding the latest record: with the
/// forward-only clock, the one open when the stream ends.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanRule {
    end: Option<u64>,
    /// `end · t0` in µs (`⌊t / t0⌋ < end` is `t < end · t0`); `None`
    /// without a span, or where it overflows and every time lies inside.
    limit: Option<u64>,
    admitted: bool,
}

impl SpanRule {
    /// The rule for a stream declaring `span`, in periods of `period`.
    pub fn new(span: Option<SimDuration>, period: SimDuration) -> SpanRule {
        let end = span.map(|span| span.as_micros().div_ceil(period.as_micros()));
        SpanRule {
            end,
            limit: end.and_then(|end| end.checked_mul(period.as_micros())),
            admitted: false,
        }
    }

    /// Whether a record at `time` lies inside the span.
    pub fn admits(&mut self, time: SimTime) -> bool {
        let inside = self.limit.is_none_or(|limit| time.as_micros() < limit);
        self.admitted |= inside;
        inside
    }

    /// The period to close up to, exclusive, once the stream has ended
    /// with the clock at `current`.
    pub fn last(&self, current: u64) -> u64 {
        self.end.unwrap_or(current + u64::from(self.admitted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_net::{SegmentKind, TcpFlags};

    fn stub() -> Ipv4Net {
        "10.1.0.0/16".parse().unwrap()
    }

    fn rec(secs: f64, direction: Direction, kind: SegmentKind) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_secs_f64(secs),
            direction,
            kind,
            "10.1.0.5:1025".parse().unwrap(),
            "192.0.2.80:80".parse().unwrap(),
        )
    }

    fn sig(syn: u64, synack: u64) -> PeriodSignals {
        PeriodSignals {
            syn,
            synack,
            fin: 0,
            rst: 0,
        }
    }

    #[test]
    fn run_trace_bins_per_period() {
        let mut router = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let trace = Trace::from_records(
            vec![
                rec(1.0, Direction::Outbound, SegmentKind::Syn),
                rec(2.0, Direction::Inbound, SegmentKind::SynAck),
                rec(21.0, Direction::Outbound, SegmentKind::Syn),
                rec(22.0, Direction::Outbound, SegmentKind::Syn),
                rec(59.0, Direction::Inbound, SegmentKind::SynAck),
            ],
            SimDuration::from_secs(60),
        );
        let samples = router.run_trace(&trace);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0], sig(1, 1));
        assert_eq!(samples[1], sig(2, 0));
        assert_eq!(samples[2], sig(0, 1));
    }

    #[test]
    fn run_trace_agrees_with_trace_period_counts() {
        use syndog_sim::SimRng;
        use syndog_traffic::sites::{SiteProfile, OBSERVATION_PERIOD};
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(17);
        let trace = site.generate_trace(&mut rng);
        let mut router = LeafRouter::new(site.stub(), OBSERVATION_PERIOD);
        let by_router = router.run_trace(&trace);
        let by_trace = trace.period_counts(OBSERVATION_PERIOD);
        let handshake_only: Vec<_> = by_router
            .iter()
            .map(|s| syndog_traffic::trace::PeriodSample {
                syn: s.syn,
                synack: s.synack,
            })
            .collect();
        assert_eq!(handshake_only, by_trace);
    }

    #[test]
    fn directional_discipline() {
        // A SYN arriving *inbound* (someone connecting into the stub) must
        // not count toward the outbound SYN tally, and vice versa.
        let mut router = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let trace = Trace::from_records(
            vec![
                rec(1.0, Direction::Inbound, SegmentKind::Syn),
                rec(2.0, Direction::Outbound, SegmentKind::SynAck),
            ],
            SimDuration::from_secs(20),
        );
        let samples = router.run_trace(&trace);
        assert_eq!(samples, vec![PeriodSignals::default()]);
    }

    #[test]
    fn empty_periods_are_emitted() {
        let mut router = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let trace = Trace::from_records(
            vec![rec(90.0, Direction::Outbound, SegmentKind::Syn)],
            SimDuration::from_secs(100),
        );
        let samples = router.run_trace(&trace);
        assert_eq!(samples.len(), 5);
        assert!(samples[..4].iter().all(|s| *s == PeriodSignals::default()));
        assert_eq!(samples[4].syn, 1);
    }

    #[test]
    fn boundary_record_lands_in_next_period() {
        let mut router = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let trace = Trace::from_records(
            vec![rec(20.0, Direction::Outbound, SegmentKind::Syn)],
            SimDuration::from_secs(40),
        );
        let samples = router.run_trace(&trace);
        assert_eq!(samples[0].syn, 0);
        assert_eq!(samples[1].syn, 1);
    }

    #[test]
    fn frame_driven_input() {
        use syndog_net::classify;
        use syndog_net::packet::PacketBuilder;
        let mut router = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let syn = PacketBuilder::tcp(
            "10.1.0.5:1025".parse().unwrap(),
            "192.0.2.80:80".parse().unwrap(),
            TcpFlags::SYN,
        )
        .build()
        .unwrap();
        let synack = PacketBuilder::tcp(
            "192.0.2.80:80".parse().unwrap(),
            "10.1.0.5:1025".parse().unwrap(),
            TcpFlags::SYN | TcpFlags::ACK,
        )
        .build()
        .unwrap();
        let frames: [(Direction, &[u8]); 3] = [
            (Direction::Outbound, &syn),
            (Direction::Inbound, &synack),
            (Direction::Inbound, &[0u8; 6]),
        ];
        for (direction, frame) in frames {
            router.observe_event(&FrameEvent {
                time: SimTime::ZERO,
                direction,
                kind: classify(frame).ok(),
            });
        }
        assert_eq!(router.take_period_sample(), sig(1, 1));
        assert_eq!(router.sniffer(Direction::Inbound).malformed(), 1);
        assert_eq!(router.current_period(), 1);
    }

    #[test]
    fn a_record_behind_the_clock_counts_late_in_the_open_period() {
        let mut router = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let mut closed = Vec::new();
        for (secs, kind) in [(25.0, SegmentKind::Syn), (5.0, SegmentKind::Syn)] {
            let record = rec(secs, Direction::Outbound, kind);
            router.advance_to(record.time, &mut closed);
            router.observe_record(&record);
        }
        assert_eq!(closed, vec![PeriodSignals::default()]);
        assert_eq!(router.late(), 1);
        assert_eq!(router.take_period_sample().syn, 2);
    }

    #[test]
    fn span_rule_closes_the_declared_span_or_the_latest_records_period() {
        let period = SimDuration::from_secs(20);
        let mut declared = SpanRule::new(Some(SimDuration::from_secs(41)), period);
        assert!(declared.admits(SimTime::from_secs(59)));
        assert!(!declared.admits(SimTime::from_secs(60)));
        assert_eq!(declared.last(0), 3);
        let mut open = SpanRule::new(None, period);
        assert_eq!(open.last(7), 7, "no record, no period");
        assert!(open.admits(SimTime::from_secs(1_000_000)));
        assert_eq!(open.last(7), 8);
    }

    #[test]
    fn span_rule_admits_exactly_the_periods_before_its_end() {
        // 2⁶⁴ − 1 ≡ 1 (mod 7), so for the span `MAX` in 7 µs periods
        // `end · t0` overflows and every time is admitted, `MAX` included.
        for t0 in [1, 3, 7, 20_000_000, u64::MAX / 2 + 1, u64::MAX] {
            for span in [0, 1, t0 - 1, t0, 41_000_000, u64::MAX - 1, u64::MAX] {
                let end = span.div_ceil(t0);
                let edge = end.wrapping_mul(t0);
                let mut rule = SpanRule::new(
                    Some(SimDuration::from_micros(span)),
                    SimDuration::from_micros(t0),
                );
                for t in [
                    0,
                    1,
                    t0 - 1,
                    t0,
                    span.saturating_sub(1),
                    span,
                    span.saturating_add(1),
                ]
                .into_iter()
                .chain([edge.wrapping_sub(1), edge, edge.wrapping_add(1)])
                .chain([u64::MAX - 1, u64::MAX])
                {
                    assert_eq!(
                        rule.admits(SimTime::from_micros(t)),
                        t / t0 < end,
                        "t0 {t0}, span {span}, t {t}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let _ = LeafRouter::new(stub(), SimDuration::ZERO);
    }

    /// A pcap capture holding `frames` at microsecond timestamps.
    fn pcap(frames: &[(u64, Vec<u8>)]) -> Vec<u8> {
        use syndog_net::pcap::{PcapFrame, PcapWriter};
        let mut writer = PcapWriter::new(Vec::new()).unwrap();
        for (micros, data) in frames {
            writer
                .write_frame(&PcapFrame {
                    ts_sec: (micros / 1_000_000) as u32,
                    ts_nanos: (micros % 1_000_000) as u32 * 1000,
                    data,
                })
                .unwrap();
        }
        writer.into_inner()
    }

    #[test]
    fn ingest_from_pcap_matches_run_trace() {
        use crate::source::PcapSource;
        use syndog_sim::SimRng;
        use syndog_traffic::sites::{SiteProfile, OBSERVATION_PERIOD};
        let site = SiteProfile::auckland();
        let mut rng = SimRng::seed_from_u64(23);
        let mut file = Vec::new();
        site.generate_trace(&mut rng).write_pcap(&mut file).unwrap();

        let imported = Trace::read_pcap(file.as_slice(), site.stub()).unwrap();
        let expected = LeafRouter::new(site.stub(), OBSERVATION_PERIOD).run_trace(&imported);

        let source = PcapSource::new(file.as_slice(), site.stub()).unwrap();
        let mut by_pcap = LeafRouter::new(site.stub(), OBSERVATION_PERIOD);
        let mut samples = Vec::new();
        by_pcap.ingest(source, &mut samples).unwrap();
        // The period holding the last frame: the envelope `read_pcap`
        // gives the imported trace.
        samples.push(by_pcap.take_period_sample());
        assert_eq!(samples, expected);
    }

    #[test]
    fn ingest_from_raw_frames_matches_run_trace() {
        use crate::source::PcapSource;
        use syndog_net::packet::PacketBuilder;
        // 300 records, so the frames cross the source's 256-frame batches.
        let records = (0..300)
            .map(|i| match i % 3 {
                0 => rec(f64::from(i) * 0.2, Direction::Inbound, SegmentKind::SynAck),
                _ => rec(f64::from(i) * 0.2, Direction::Outbound, SegmentKind::Syn),
            })
            .collect();
        let trace = Trace::from_records(records, SimDuration::from_secs(60));
        let mut by_trace = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let expected = by_trace.run_trace(&trace);

        // Re-synthesize each record as a raw frame addressed the way it
        // travels (the source tags direction by destination), plus one
        // malformed frame that must only show up in the malformed tally.
        let mut frames: Vec<(u64, Vec<u8>)> = trace
            .records()
            .iter()
            .map(|r| {
                let (flags, src, dst) = match r.kind {
                    SegmentKind::Syn => (syndog_net::TcpFlags::SYN, r.src, r.dst),
                    SegmentKind::SynAck => (
                        syndog_net::TcpFlags::SYN | syndog_net::TcpFlags::ACK,
                        r.dst,
                        r.src,
                    ),
                    _ => unreachable!("test trace holds handshake records only"),
                };
                let frame = PacketBuilder::tcp(src, dst, flags).build().unwrap();
                (r.time.as_micros(), frame)
            })
            .collect();
        frames.push((59_900_000, vec![0u8; 6]));
        let file = pcap(&frames);

        let mut by_frames = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let mut samples = Vec::new();
        let source = PcapSource::new(file.as_slice(), stub()).unwrap();
        by_frames.ingest(source, &mut samples).unwrap();
        samples.push(by_frames.take_period_sample());
        assert_eq!(samples, expected);
        assert_eq!(by_frames.sniffer(Direction::Outbound).malformed(), 1);
    }

    #[test]
    fn ingest_without_duration_closes_no_trailing_periods() {
        use crate::source::PcapSource;
        let syn = syndog_net::packet::PacketBuilder::tcp(
            "10.1.0.5:1025".parse().unwrap(),
            "192.0.2.80:80".parse().unwrap(),
            TcpFlags::SYN,
        )
        .build()
        .unwrap();
        let file = pcap(&[(1_000_000, syn)]);
        let mut router = LeafRouter::new(stub(), SimDuration::from_secs(20));
        let mut samples = Vec::new();
        router
            .ingest(
                PcapSource::new(file.as_slice(), stub()).unwrap(),
                &mut samples,
            )
            .unwrap();
        // The event's own period is still open: a stream declares no end.
        assert!(samples.is_empty());
        assert_eq!(router.take_period_sample().syn, 1);
    }
}
