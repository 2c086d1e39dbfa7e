//! The frame ingestion boundary: a [`FrameSource`] produces batches of
//! classified, direction-tagged, timestamped [`FrameEvent`]s, and
//! [`LeafRouter::ingest`](crate::router::LeafRouter::ingest) tallies them
//! and slices time.
//!
//! The paper's sniffer (§2) is a classifier plus two counters; nothing in
//! it cares *where* frames come from. [`PcapSource`] is the one frame
//! source: `syndog sniff` streams a pcap through it, classifying frames
//! without decoding records. Every other input is a record stream
//! ([`RecordReader`](syndog_traffic::RecordReader) or a
//! [`Trace`](syndog_traffic::Trace)) and goes through the record
//! loop,
//! [`SynDogAgent::run_trace_with`](crate::agent::SynDogAgent::run_trace_with),
//! instead.

use std::io::Read;

use syndog_net::pcap::{PcapFrame, PcapReader};
use syndog_net::{classify, SegmentKind};
use syndog_net::{Ipv4Net, NetError};
use syndog_sim::SimTime;
use syndog_traffic::Direction;

/// Number of events per [`PcapSource`] batch; large enough to amortize
/// per-batch overhead, small enough to stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// One classified, direction-tagged, timestamped frame observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEvent {
    /// When the frame crossed the router.
    pub time: SimTime,
    /// Which interface it crossed.
    pub direction: Direction,
    /// Its classification, or `None` for a frame the §2 classifier
    /// rejected (truncated / invalid) — still observed, tallied as
    /// malformed.
    pub kind: Option<SegmentKind>,
}

/// A reusable buffer of `FrameEvent`s — the unit a [`FrameSource`]
/// produces per call. Recycling one `EventBatch` across calls means the
/// steady-state ingest loop performs no allocation per batch.
#[derive(Debug, Clone, Default)]
pub struct EventBatch {
    events: Vec<FrameEvent>,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, event: FrameEvent) {
        self.events.push(event);
    }

    /// Removes all events, keeping the allocation.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events as a slice.
    pub fn events(&self) -> &[FrameEvent] {
        &self.events
    }
}

/// A producer of classified frame events, in capture order.
///
/// [`PcapSource`] is the implementation.
pub trait FrameSource {
    /// Clears `out`, then fills it with the source's next batch of events.
    ///
    /// Returns `Ok(false)` once the source is exhausted (`out` left
    /// empty); until then every call produces at least one event.
    ///
    /// # Errors
    ///
    /// Reports stream failures (I/O, pcap structure). A *malformed frame*
    /// is not an error — it becomes an event with `kind: None`.
    fn next_batch(&mut self, out: &mut EventBatch) -> Result<bool, NetError>;
}

/// [`FrameSource`] over a pcap capture stream.
///
/// Each record is lent in place by
/// [`PcapReader::next_frame`](syndog_net::pcap::PcapReader::next_frame),
/// classified with the §2 algorithm straight into the output batch (no
/// per-packet copy or allocation), and direction-tagged by the
/// *destination* address against the stub prefix — the same inference
/// [`RecordReader::pcap`](syndog_traffic::RecordReader::pcap) uses, and
/// for the same reason: flood SYNs carry forged source addresses, so the
/// destination is the one trustworthy field.
#[derive(Debug)]
pub struct PcapSource<R> {
    reader: PcapReader<R>,
    stub: Ipv4Net,
}

impl<R: Read> PcapSource<R> {
    /// Opens a capture stream, reading and validating the pcap header.
    ///
    /// # Errors
    ///
    /// Propagates header-validation and I/O errors.
    pub fn new(reader: R, stub: Ipv4Net) -> Result<Self, NetError> {
        Ok(PcapSource {
            reader: PcapReader::new(reader)?,
            stub,
        })
    }
}

/// Classifies and direction-tags one frame.
#[inline]
fn event_for(frame: &PcapFrame<'_>, stub: Ipv4Net) -> FrameEvent {
    let data = frame.data;
    let kind = classify(data).ok();
    // Destination IPv4 address sits at a fixed offset once the frame is
    // known to be a well-formed IPv4 packet (classify validated the
    // version and minimum length). Non-IPv4 frames have no routable
    // destination; their classification (NonTcp / malformed) never
    // touches the period counts, so the direction tag is moot.
    let direction = match kind {
        Some(_) if data.len() >= 14 + 20 && data[12] == 0x08 && data[13] == 0x00 => {
            let dst = std::net::Ipv4Addr::new(data[30], data[31], data[32], data[33]);
            if stub.contains(dst) {
                Direction::Inbound
            } else {
                Direction::Outbound
            }
        }
        _ => Direction::Outbound,
    };
    FrameEvent {
        time: SimTime::from_micros(frame.timestamp_micros()),
        direction,
        kind,
    }
}

impl<R: Read> FrameSource for PcapSource<R> {
    fn next_batch(&mut self, out: &mut EventBatch) -> Result<bool, NetError> {
        out.clear();
        for _ in 0..DEFAULT_BATCH_SIZE {
            let Some(frame) = self.reader.next_frame()? else {
                break;
            };
            out.push(event_for(&frame, self.stub));
        }
        Ok(!out.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_sim::SimDuration;
    use syndog_traffic::{Trace, TraceRecord};

    fn rec(secs: f64, direction: Direction, kind: SegmentKind) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_secs_f64(secs),
            direction,
            kind,
            "10.1.0.5:1025".parse().unwrap(),
            "192.0.2.80:80".parse().unwrap(),
        )
    }

    fn drain<S: FrameSource>(source: &mut S) -> Vec<FrameEvent> {
        let mut out = EventBatch::new();
        let mut all = Vec::new();
        while source.next_batch(&mut out).unwrap() {
            all.extend_from_slice(out.events());
        }
        // Exhaustion is stable: further calls keep returning false.
        assert!(!source.next_batch(&mut out).unwrap());
        assert!(out.is_empty());
        all
    }

    #[test]
    fn pcap_source_matches_trace_read_pcap() {
        let stub: Ipv4Net = "10.1.0.0/16".parse().unwrap();
        // 600 records, so the events span three 256-event batches.
        let records = (0..600u32)
            .map(|i| {
                let secs = f64::from(i) * 0.01;
                match i % 3 {
                    0 => rec(secs, Direction::Outbound, SegmentKind::Syn),
                    1 => TraceRecord::new(
                        SimTime::from_secs_f64(secs),
                        Direction::Inbound,
                        SegmentKind::SynAck,
                        "192.0.2.80:80".parse().unwrap(),
                        "10.1.0.5:1025".parse().unwrap(),
                    ),
                    _ => rec(secs, Direction::Outbound, SegmentKind::NonTcp),
                }
            })
            .collect();
        let trace = Trace::from_records(records, SimDuration::from_secs(10));
        let mut file = Vec::new();
        trace.write_pcap(&mut file).unwrap();
        let by_trace = Trace::read_pcap(file.as_slice(), stub).unwrap();
        let mut source = PcapSource::new(file.as_slice(), stub).unwrap();
        let events = drain(&mut source);
        assert_eq!(events.len(), by_trace.len());
        for (event, record) in events.iter().zip(by_trace.records()) {
            assert_eq!(event.time, record.time);
            assert_eq!(event.kind, Some(record.kind));
            // NonTcp frames have no IPv4 destination; direction is moot.
            if record.kind != SegmentKind::NonTcp {
                assert_eq!(event.direction, record.direction);
            }
        }
    }

    #[test]
    fn pcap_source_reports_stream_errors() {
        let trace = Trace::from_records(
            vec![rec(1.0, Direction::Outbound, SegmentKind::Syn)],
            SimDuration::from_secs(10),
        );
        let mut file = Vec::new();
        trace.write_pcap(&mut file).unwrap();
        file.truncate(file.len() - 2);
        let mut source = PcapSource::new(file.as_slice(), "10.1.0.0/16".parse().unwrap()).unwrap();
        let mut out = EventBatch::new();
        assert!(source.next_batch(&mut out).is_err());
    }

    #[test]
    fn event_batch_recycles() {
        let mut batch = EventBatch::new();
        batch.push(FrameEvent {
            time: SimTime::ZERO,
            direction: Direction::Outbound,
            kind: None,
        });
        assert_eq!(batch.len(), 1);
        batch.clear();
        assert!(batch.is_empty());
        assert!(batch.events().is_empty());
    }
}
