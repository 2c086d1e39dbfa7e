//! Timestamped segment traces: the interchange format between traffic
//! generation, flood injection, the leaf router and the detector.
//!
//! A [`Trace`] is a vector of [`TraceRecord`]s — one per TCP control
//! segment crossing the leaf router, in either direction — in time order
//! when generated, in arrival order when read from a capture. Traces can
//! be merged (normal background + flood), aggregated into per-period
//! [`PeriodSample`]s, serialized to a compact binary format, and bridged
//! to real pcap files by synthesizing full packets. A [`RecordReader`]
//! reads either file format one record at a time, never whole.

use std::fmt;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddrV4};

use serde::{Deserialize, Serialize};
use syndog_fingerprint::syn_key;
use syndog_net::pcap::{PcapFrame, PcapReader, PcapWriter};
use syndog_net::PacketBuilder;
use syndog_net::{Ipv4Net, MacAddr, NetError, PacketView, SegmentKind, TcpFlags};
use syndog_sim::{SimDuration, SimTime};

/// Which way a segment crossed the leaf router.
///
/// Per the paper's convention: *inbound* flows from the Internet into the
/// stub network (intranet), *outbound* flows out toward the Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Internet → stub network.
    Inbound,
    /// Stub network → Internet.
    Outbound,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Inbound => Direction::Outbound,
            Direction::Outbound => Direction::Inbound,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Inbound => write!(f, "inbound"),
            Direction::Outbound => write!(f, "outbound"),
        }
    }
}

/// One TCP control segment observed at the leaf router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the segment crossed the router.
    pub time: SimTime,
    /// Direction of travel.
    pub direction: Direction,
    /// Segment classification (SYN, SYN/ACK, ACK, FIN, RST, …).
    pub kind: SegmentKind,
    /// Source endpoint.
    pub src: SocketAddrV4,
    /// Destination endpoint.
    pub dst: SocketAddrV4,
    /// Source MAC address as seen on the stub-network side; meaningful for
    /// outbound segments (used by §4.2.3 source localization).
    pub src_mac: MacAddr,
    /// Packed SYN fingerprint
    /// ([`FingerprintKey::to_bits`](syndog_fingerprint::FingerprintKey)),
    /// or 0 when the segment is not a SYN / carries no fingerprint (e.g. a
    /// v1 binary trace). Only meaningful on `SegmentKind::Syn` records.
    pub fp: u64,
}

impl TraceRecord {
    /// Convenience constructor for tests and generators.
    pub fn new(
        time: SimTime,
        direction: Direction,
        kind: SegmentKind,
        src: SocketAddrV4,
        dst: SocketAddrV4,
    ) -> Self {
        TraceRecord {
            time,
            direction,
            kind,
            src,
            dst,
            src_mac: MacAddr::ZERO,
            fp: 0,
        }
    }

    /// Returns a copy with the source MAC set.
    pub fn with_mac(mut self, mac: MacAddr) -> Self {
        self.src_mac = mac;
        self
    }

    /// Returns a copy with the packed SYN fingerprint set.
    pub fn with_fp(mut self, fp: u64) -> Self {
        self.fp = fp;
        self
    }
}

/// Per-observation-period handshake counts — the sniffers' report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PeriodSample {
    /// Outgoing SYNs counted by the outbound sniffer.
    pub syn: u64,
    /// Incoming SYN/ACKs counted by the inbound sniffer.
    pub synack: u64,
}

impl PeriodSample {
    /// Adds another sample's counts into this one.
    pub fn merge(&mut self, other: PeriodSample) {
        self.syn += other.syn;
        self.synack += other.synack;
    }
}

/// A sequence of segment records with a fixed duration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    duration: SimDuration,
}

/// Error from trace (de)serialization.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// The binary stream does not start with the trace magic.
    BadMagic(u32),
    /// The stream ended mid-record.
    Truncated,
    /// A record field held an unrepresentable value.
    InvalidRecord(&'static str),
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A pcap-level failure while importing or exporting.
    Net(NetError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic(magic) => write!(f, "bad trace magic {magic:#010x}"),
            TraceError::Truncated => write!(f, "truncated trace stream"),
            TraceError::InvalidRecord(what) => write!(f, "invalid trace record field: {what}"),
            TraceError::Io(err) => write!(f, "i/o error: {err}"),
            TraceError::Net(err) => write!(f, "packet error: {err}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(err) => Some(err),
            TraceError::Net(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(err: std::io::Error) -> Self {
        TraceError::Io(err)
    }
}

impl From<NetError> for TraceError {
    fn from(err: NetError) -> Self {
        TraceError::Net(err)
    }
}

/// Magic number of the binary trace format (`"SDTR"` big-endian).
const TRACE_MAGIC: u32 = 0x5344_5452;

/// Current binary trace format version. v1 records are 28 bytes; v2
/// appends the 8-byte packed SYN fingerprint. v1 streams still read (with
/// `fp = 0`), so pre-fingerprint trace files stay loadable.
const TRACE_VERSION: u16 = 2;

fn kind_to_byte(kind: SegmentKind) -> u8 {
    match kind {
        SegmentKind::Syn => 0,
        SegmentKind::SynAck => 1,
        SegmentKind::Rst => 2,
        SegmentKind::Fin => 3,
        SegmentKind::Ack => 4,
        SegmentKind::OtherTcp => 5,
        SegmentKind::NonTcp => 6,
    }
}

fn byte_to_kind(byte: u8) -> Result<SegmentKind, TraceError> {
    Ok(match byte {
        0 => SegmentKind::Syn,
        1 => SegmentKind::SynAck,
        2 => SegmentKind::Rst,
        3 => SegmentKind::Fin,
        4 => SegmentKind::Ack,
        5 => SegmentKind::OtherTcp,
        6 => SegmentKind::NonTcp,
        _ => return Err(TraceError::InvalidRecord("segment kind")),
    })
}

impl Trace {
    /// Creates an empty trace covering `duration`.
    pub fn new(duration: SimDuration) -> Self {
        Trace {
            records: Vec::new(),
            duration,
        }
    }

    /// Creates a trace from records, sorting them by time.
    pub fn from_records(mut records: Vec<TraceRecord>, duration: SimDuration) -> Self {
        records.sort_by_key(|r| r.time);
        Trace { records, duration }
    }

    /// A trace over records already in time order.
    pub(crate) fn from_time_ordered(records: Vec<TraceRecord>, duration: SimDuration) -> Self {
        debug_assert!(records.windows(2).all(|pair| pair[0].time <= pair[1].time));
        Trace { records, duration }
    }

    /// Appends a record. Callers appending out of order must call
    /// [`Trace::sort`] before consuming the trace.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Restores time order after unordered pushes.
    pub fn sort(&mut self) {
        self.records.sort_by_key(|r| r.time);
    }

    /// The records: in time order if the trace has been kept sorted, in
    /// arrival order if it was read from a capture.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The nominal duration of the trace.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` for a record-less trace.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merges another trace's records into this one (e.g. flood into
    /// background), keeping time order and extending the duration if the
    /// other trace is longer.
    pub fn merge(&mut self, other: &Trace) {
        self.records.extend_from_slice(&other.records);
        self.sort();
        self.duration = self.duration.max(other.duration);
    }

    /// Aggregates the trace into per-period sniffer counts: outbound SYNs
    /// and inbound SYN/ACKs, exactly what the two sniffers report (§3.1).
    ///
    /// The result covers `ceil(duration / period)` periods, including empty
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn period_counts(&self, period: SimDuration) -> Vec<PeriodSample> {
        assert!(!period.is_zero(), "observation period must be non-zero");
        let periods =
            (self.duration.as_micros() + period.as_micros() - 1) / period.as_micros().max(1);
        let mut counts = vec![PeriodSample::default(); periods.max(1) as usize];
        for record in &self.records {
            let idx = record.time.period_index(period) as usize;
            if idx >= counts.len() {
                continue; // records past the nominal duration are ignored
            }
            match (record.direction, record.kind) {
                (Direction::Outbound, SegmentKind::Syn) => counts[idx].syn += 1,
                (Direction::Inbound, SegmentKind::SynAck) => counts[idx].synack += 1,
                _ => {}
            }
        }
        counts
    }

    /// Like [`Trace::period_counts`] but counting SYNs and SYN/ACKs from
    /// *both* directions, as the paper does for the bidirectional LBL and
    /// Harvard traces (Figure 3).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn period_counts_bidirectional(&self, period: SimDuration) -> Vec<PeriodSample> {
        assert!(!period.is_zero(), "observation period must be non-zero");
        let periods =
            (self.duration.as_micros() + period.as_micros() - 1) / period.as_micros().max(1);
        let mut counts = vec![PeriodSample::default(); periods.max(1) as usize];
        for record in &self.records {
            let idx = record.time.period_index(period) as usize;
            if idx >= counts.len() {
                continue;
            }
            match record.kind {
                SegmentKind::Syn => counts[idx].syn += 1,
                SegmentKind::SynAck => counts[idx].synack += 1,
                _ => {}
            }
        }
        counts
    }

    /// Serializes to the compact binary trace format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_binary<W: Write>(&self, mut writer: W) -> Result<(), TraceError> {
        writer.write_all(&TRACE_MAGIC.to_be_bytes())?;
        writer.write_all(&TRACE_VERSION.to_be_bytes())?;
        writer.write_all(&self.duration.as_micros().to_be_bytes())?;
        writer.write_all(&(self.records.len() as u64).to_be_bytes())?;
        for r in &self.records {
            writer.write_all(&r.time.as_micros().to_be_bytes())?;
            writer.write_all(&[
                match r.direction {
                    Direction::Inbound => 0,
                    Direction::Outbound => 1,
                },
                kind_to_byte(r.kind),
            ])?;
            writer.write_all(&r.src.ip().octets())?;
            writer.write_all(&r.src.port().to_be_bytes())?;
            writer.write_all(&r.dst.ip().octets())?;
            writer.write_all(&r.dst.port().to_be_bytes())?;
            writer.write_all(&r.src_mac.octets())?;
            writer.write_all(&r.fp.to_be_bytes())?;
        }
        Ok(())
    }

    /// Synthesizes one real Ethernet frame for a record (flags chosen to
    /// match the record's classification), appending it to `frame`.
    fn synthesize_frame(r: &TraceRecord, frame: &mut Vec<u8>) -> Result<(), NetError> {
        let flags = match r.kind {
            SegmentKind::Syn => TcpFlags::SYN,
            SegmentKind::SynAck => TcpFlags::SYN | TcpFlags::ACK,
            SegmentKind::Rst => TcpFlags::RST,
            SegmentKind::Fin => TcpFlags::FIN | TcpFlags::ACK,
            SegmentKind::Ack => TcpFlags::ACK,
            SegmentKind::OtherTcp => TcpFlags::PSH | TcpFlags::ACK,
            SegmentKind::NonTcp => TcpFlags::EMPTY,
        };
        if r.kind == SegmentKind::NonTcp {
            PacketBuilder::non_tcp(*r.src.ip(), *r.dst.ip(), syndog_net::PROTO_UDP)
                .src_mac(r.src_mac)
                .build_into(frame)
        } else if r.kind == SegmentKind::Syn && r.fp != 0 {
            // Shape the SYN's headers so pcap import re-extracts the
            // record's fingerprint. The nonzero default seq keeps the
            // SEQ_ZERO quirk under the key's control.
            syndog_fingerprint::FingerprintKey::from_bits(r.fp)
                .apply(
                    PacketBuilder::tcp(r.src, r.dst, flags)
                        .src_mac(r.src_mac)
                        .seq(1),
                )
                .build_into(frame)
        } else {
            PacketBuilder::tcp(r.src, r.dst, flags)
                .src_mac(r.src_mac)
                .build_into(frame)
        }
    }

    /// Exports the trace as a pcap capture by synthesizing one real
    /// Ethernet/IPv4/TCP packet per record (flags chosen to match the
    /// record's classification). Every frame is encoded into one reused
    /// buffer and written from there.
    ///
    /// # Errors
    ///
    /// Propagates packet-encoding and I/O errors.
    pub fn write_pcap<W: Write>(&self, writer: W) -> Result<(), TraceError> {
        let mut pcap = PcapWriter::new(writer)?;
        let mut frame = Vec::new();
        for r in &self.records {
            frame.clear();
            Self::synthesize_frame(r, &mut frame)?;
            let micros = r.time.as_micros();
            pcap.write_frame(&PcapFrame {
                ts_sec: (micros / 1_000_000) as u32,
                ts_nanos: ((micros % 1_000_000) * 1000) as u32,
                data: &frame,
            })?;
        }
        pcap.flush()?;
        Ok(())
    }

    /// Imports a pcap capture: a collect over [`RecordReader::pcap`], in
    /// arrival order, ending just past the latest record.
    ///
    /// # Errors
    ///
    /// Propagates pcap-format and I/O errors.
    pub fn read_pcap<R: Read>(reader: R, stub: Ipv4Net) -> Result<Self, TraceError> {
        RecordReader::pcap(reader, stub)?.into_trace()
    }
}

#[derive(Debug)]
enum Format<R> {
    Pcap {
        pcap: PcapReader<R>,
        stub: Ipv4Net,
    },
    // `record_len` is 28 bytes for v1, 36 for v2 (with the fingerprint).
    Binary {
        reader: R,
        record_len: usize,
        remaining: u64,
    },
}

/// A capture read one record at a time, in arrival order. Nothing is
/// sized from the input, so memory stays flat however long the capture
/// (or however large a hostile header's record count). The reader stops
/// at the first error, which [`RecordReader::finish`] reports: iterate it
/// through [`Iterator::by_ref`], then call `finish`.
#[derive(Debug)]
pub struct RecordReader<R> {
    format: Format<R>,
    span: Option<SimDuration>,
    error: Option<TraceError>,
}

impl<R: Read> RecordReader<R> {
    /// Opens a pcap capture, which declares no span. Each frame's headers
    /// are walked once, in place in the pcap reader's block buffer, by
    /// [`PacketView::parse`]: the kind, the endpoints, the source MAC and,
    /// for a SYN, the fingerprint ([`syn_key`]) all come from that one
    /// view. Frames it rejects are skipped. A packet addressed into `stub`
    /// is inbound, anything else outbound: flood SYNs forge their *source*,
    /// so the destination is the one field the routing fabric itself acts
    /// on.
    ///
    /// # Errors
    ///
    /// Propagates header-validation and I/O errors.
    pub fn pcap(reader: R, stub: Ipv4Net) -> Result<Self, TraceError> {
        Ok(RecordReader {
            format: Format::Pcap {
                pcap: PcapReader::new(reader)?,
                stub,
            },
            span: None,
            error: None,
        })
    }

    /// Opens a binary trace, whose header declares the span.
    ///
    /// # Errors
    ///
    /// Returns `TraceError::BadMagic`, `TraceError::Truncated` or
    /// `TraceError::InvalidRecord` for a malformed header, and
    /// `TraceError::Io` for a read that fails for any other reason.
    pub fn binary(mut reader: R) -> Result<Self, TraceError> {
        let mut head = [0u8; 4 + 2 + 8 + 8];
        reader.read_exact(&mut head).map_err(read_error)?;
        let magic = u32::from_be_bytes([head[0], head[1], head[2], head[3]]);
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let version = u16::from_be_bytes([head[4], head[5]]);
        if version == 0 || version > TRACE_VERSION {
            return Err(TraceError::InvalidRecord("format version"));
        }
        let span = SimDuration::from_micros(u64::from_be_bytes(
            head[6..14].try_into().expect("fixed slice"),
        ));
        Ok(RecordReader {
            format: Format::Binary {
                reader,
                // v1 records stop after the MAC; v2 appends the fingerprint.
                record_len: if version == 1 { 28 } else { 36 },
                remaining: u64::from_be_bytes(head[14..22].try_into().expect("fixed slice")),
            },
            span: Some(span),
            error: None,
        })
    }

    /// The span the capture declares (a binary trace's duration).
    pub fn span(&self) -> Option<SimDuration> {
        self.span
    }

    /// Ends the stream.
    ///
    /// # Errors
    ///
    /// The I/O, pcap-structure or record error that ended it early.
    pub fn finish(self) -> Result<(), TraceError> {
        self.error.map_or(Ok(()), Err)
    }

    /// Collects the stream into a [`Trace`]. Without a declared span, the
    /// duration ends just past the latest record.
    ///
    /// # Errors
    ///
    /// As [`RecordReader::finish`].
    pub fn into_trace(mut self) -> Result<Trace, TraceError> {
        let mut records = Vec::new();
        let mut latest = None;
        for record in self.by_ref() {
            latest = latest.max(Some(record.time));
            records.push(record);
        }
        let past_latest = latest.map(|t: SimTime| SimDuration::from_micros(t.as_micros() + 1));
        let duration = self.span.or(past_latest).unwrap_or(SimDuration::ZERO);
        self.finish()?;
        Ok(Trace { records, duration })
    }

    #[inline(always)]
    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        match &mut self.format {
            Format::Pcap { pcap, stub } => {
                while let Some(frame) = pcap.next_frame()? {
                    let Ok(view) = PacketView::parse(frame.data) else {
                        continue;
                    };
                    let kind = view.kind();
                    let (src, dst) = match (view.src_socket(), view.dst_socket()) {
                        (Some(s), Some(d)) => (s, d),
                        _ => (
                            SocketAddrV4::new(view.src(), 0),
                            SocketAddrV4::new(view.dst(), 0),
                        ),
                    };
                    let direction = if stub.contains(*dst.ip()) {
                        Direction::Inbound
                    } else {
                        Direction::Outbound
                    };
                    let fp = syn_key(&view).map_or(0, |key| key.to_bits());
                    return Ok(Some(TraceRecord {
                        time: SimTime::from_micros(frame.timestamp_micros()),
                        direction,
                        kind,
                        src,
                        dst,
                        src_mac: view.ethernet.src,
                        fp,
                    }));
                }
                Ok(None)
            }
            Format::Binary {
                reader,
                record_len,
                remaining,
            } => {
                if *remaining == 0 {
                    return Ok(None);
                }
                *remaining -= 1;
                let mut rec = [0u8; 36];
                reader
                    .read_exact(&mut rec[..*record_len])
                    .map_err(read_error)?;
                let direction = match rec[8] {
                    0 => Direction::Inbound,
                    1 => Direction::Outbound,
                    _ => return Err(TraceError::InvalidRecord("direction")),
                };
                Ok(Some(TraceRecord {
                    time: SimTime::from_micros(u64::from_be_bytes(
                        rec[0..8].try_into().expect("fixed slice"),
                    )),
                    direction,
                    kind: byte_to_kind(rec[9])?,
                    src: SocketAddrV4::new(
                        Ipv4Addr::new(rec[10], rec[11], rec[12], rec[13]),
                        u16::from_be_bytes([rec[14], rec[15]]),
                    ),
                    dst: SocketAddrV4::new(
                        Ipv4Addr::new(rec[16], rec[17], rec[18], rec[19]),
                        u16::from_be_bytes([rec[20], rec[21]]),
                    ),
                    src_mac: MacAddr::new(rec[22..28].try_into().expect("fixed slice")),
                    // A v1 record leaves the fingerprint bytes zero.
                    fp: u64::from_be_bytes(rec[28..36].try_into().expect("fixed slice")),
                }))
            }
        }
    }
}

/// A failed `read_exact` on a binary trace: running out of bytes is a
/// truncated stream, any other failure keeps its cause.
fn read_error(err: std::io::Error) -> TraceError {
    if err.kind() == std::io::ErrorKind::UnexpectedEof {
        TraceError::Truncated
    } else {
        TraceError::Io(err)
    }
}

impl<R: Read> Iterator for RecordReader<R> {
    type Item = TraceRecord;

    // One call per record: inlined, the decode stays in the caller's loop.
    #[inline(always)]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.error.is_some() {
            return None;
        }
        self.next_record().unwrap_or_else(|err| {
            self.error = Some(err);
            None
        })
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_net::classify;

    /// The binary format's reader, collected.
    fn read_binary(bytes: &[u8]) -> Result<Trace, TraceError> {
        RecordReader::binary(bytes)?.into_trace()
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

    fn sample_trace() -> Trace {
        Trace::from_records(
            vec![
                rec(1.0, Direction::Outbound, SegmentKind::Syn),
                rec(1.1, Direction::Inbound, SegmentKind::SynAck),
                rec(25.0, Direction::Outbound, SegmentKind::Syn),
                rec(25.2, Direction::Outbound, SegmentKind::Syn),
                rec(26.0, Direction::Inbound, SegmentKind::SynAck),
                rec(45.0, Direction::Outbound, SegmentKind::Ack),
                rec(59.9, Direction::Inbound, SegmentKind::Syn), // inbound SYN: not counted
            ],
            SimDuration::from_secs(60),
        )
    }

    #[test]
    fn period_counts_directional_rules() {
        let counts = sample_trace().period_counts(SimDuration::from_secs(20));
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[0], PeriodSample { syn: 1, synack: 1 });
        assert_eq!(counts[1], PeriodSample { syn: 2, synack: 1 });
        assert_eq!(counts[2], PeriodSample { syn: 0, synack: 0 });
    }

    #[test]
    fn bidirectional_counts_include_both_sides() {
        let counts = sample_trace().period_counts_bidirectional(SimDuration::from_secs(20));
        assert_eq!(counts[2], PeriodSample { syn: 1, synack: 0 });
    }

    #[test]
    fn records_sorted_on_construction_and_merge() {
        let mut t = Trace::from_records(
            vec![
                rec(5.0, Direction::Outbound, SegmentKind::Syn),
                rec(1.0, Direction::Outbound, SegmentKind::Syn),
            ],
            SimDuration::from_secs(10),
        );
        assert!(t.records()[0].time < t.records()[1].time);
        let other = Trace::from_records(
            vec![rec(3.0, Direction::Outbound, SegmentKind::Syn)],
            SimDuration::from_secs(30),
        );
        t.merge(&other);
        assert_eq!(t.len(), 3);
        assert_eq!(t.records()[1].time, SimTime::from_secs(3));
        assert_eq!(t.duration(), SimDuration::from_secs(30));
    }

    #[test]
    fn records_past_duration_ignored_in_counts() {
        let t = Trace::from_records(
            vec![rec(100.0, Direction::Outbound, SegmentKind::Syn)],
            SimDuration::from_secs(40),
        );
        let counts = t.period_counts(SimDuration::from_secs(20));
        assert_eq!(counts.len(), 2);
        assert!(counts.iter().all(|c| c.syn == 0));
    }

    #[test]
    fn synthesized_frames_classify_back_to_record_kinds() {
        let t = sample_trace();
        let mut frame = Vec::new();
        let kinds: Vec<SegmentKind> = t
            .records()
            .iter()
            .map(|r| {
                frame.clear();
                Trace::synthesize_frame(r, &mut frame).unwrap();
                classify(&frame).unwrap()
            })
            .collect();
        let expected: Vec<SegmentKind> = t.records().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, expected);
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        let restored = read_binary(buf.as_slice()).unwrap();
        assert_eq!(restored, t);
    }

    #[test]
    fn binary_rejects_corruption() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            read_binary(bad.as_slice()),
            Err(TraceError::BadMagic(_))
        ));
        // Truncated mid-record.
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(read_binary(cut), Err(TraceError::Truncated)));
        // Bad direction byte in the first record.
        let mut bad_dir = buf.clone();
        bad_dir[22 + 8] = 9;
        assert!(matches!(
            read_binary(bad_dir.as_slice()),
            Err(TraceError::InvalidRecord("direction"))
        ));
    }

    #[test]
    fn pcap_roundtrip_preserves_counts_and_direction() {
        let stub: Ipv4Net = "10.1.0.0/16".parse().unwrap();
        let t = sample_trace();
        let mut file = Vec::new();
        t.write_pcap(&mut file).unwrap();
        let restored = Trace::read_pcap(file.as_slice(), stub).unwrap();
        assert_eq!(restored.len(), t.len());
        // Direction is inferred from the stub prefix. The sample's outbound
        // records all have a 10.1/16 source; the inbound SYN at 59.9 s has
        // an external source... but sample_trace uses the same src for all.
        // Check the handshake signal counts agree per period instead.
        let a = t.period_counts_bidirectional(SimDuration::from_secs(20));
        let b = restored.period_counts_bidirectional(SimDuration::from_secs(20));
        assert_eq!(a, b);
    }

    #[test]
    fn pcap_direction_inference() {
        let stub: Ipv4Net = "10.1.0.0/16".parse().unwrap();
        let mut t = Trace::new(SimDuration::from_secs(10));
        // Outbound SYN from inside the stub.
        t.push(rec(1.0, Direction::Outbound, SegmentKind::Syn));
        // Inbound SYN/ACK from outside.
        t.push(TraceRecord::new(
            SimTime::from_secs(2),
            Direction::Inbound,
            SegmentKind::SynAck,
            "192.0.2.80:80".parse().unwrap(),
            "10.1.0.5:1025".parse().unwrap(),
        ));
        let mut file = Vec::new();
        t.write_pcap(&mut file).unwrap();
        let restored = Trace::read_pcap(file.as_slice(), stub).unwrap();
        assert_eq!(restored.records()[0].direction, Direction::Outbound);
        assert_eq!(restored.records()[1].direction, Direction::Inbound);
        let counts = restored.period_counts(SimDuration::from_secs(10));
        assert_eq!(counts[0], PeriodSample { syn: 1, synack: 1 });
    }

    #[test]
    fn mac_survives_binary_and_pcap() {
        let mac = MacAddr::for_host(2, 9);
        let t = Trace::from_records(
            vec![rec(0.5, Direction::Outbound, SegmentKind::Syn).with_mac(mac)],
            SimDuration::from_secs(1),
        );
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        assert_eq!(
            read_binary(buf.as_slice()).unwrap().records()[0].src_mac,
            mac
        );
        let mut file = Vec::new();
        t.write_pcap(&mut file).unwrap();
        let restored = Trace::read_pcap(file.as_slice(), "10.1.0.0/16".parse().unwrap()).unwrap();
        assert_eq!(restored.records()[0].src_mac, mac);
    }

    #[test]
    fn fingerprint_survives_binary_and_pcap() {
        let fp = syndog_fingerprint::os_mix::for_host(0, 0).to_bits();
        let t = Trace::from_records(
            vec![
                rec(0.5, Direction::Outbound, SegmentKind::Syn)
                    .with_mac(MacAddr::for_host(1, 3))
                    .with_fp(fp),
                rec(0.6, Direction::Inbound, SegmentKind::SynAck),
            ],
            SimDuration::from_secs(1),
        );
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        let restored = read_binary(buf.as_slice()).unwrap();
        assert_eq!(restored, t);
        assert_eq!(restored.records()[0].fp, fp);
        // pcap export synthesizes the fingerprint into the SYN's headers;
        // import re-extracts the identical key.
        let mut file = Vec::new();
        t.write_pcap(&mut file).unwrap();
        let reread = Trace::read_pcap(file.as_slice(), "10.1.0.0/16".parse().unwrap()).unwrap();
        assert_eq!(reread.records()[0].fp, fp);
        assert_eq!(reread.records()[1].fp, 0);
    }

    #[test]
    fn v1_binary_traces_read_with_zero_fingerprints() {
        // Hand-assemble a version-1 stream: same header, 28-byte records
        // without the fingerprint word.
        let t = sample_trace();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&TRACE_MAGIC.to_be_bytes());
        v1.extend_from_slice(&1u16.to_be_bytes());
        v1.extend_from_slice(&t.duration().as_micros().to_be_bytes());
        v1.extend_from_slice(&(t.len() as u64).to_be_bytes());
        for r in t.records() {
            v1.extend_from_slice(&r.time.as_micros().to_be_bytes());
            v1.push(match r.direction {
                Direction::Inbound => 0,
                Direction::Outbound => 1,
            });
            v1.push(kind_to_byte(r.kind));
            v1.extend_from_slice(&r.src.ip().octets());
            v1.extend_from_slice(&r.src.port().to_be_bytes());
            v1.extend_from_slice(&r.dst.ip().octets());
            v1.extend_from_slice(&r.dst.port().to_be_bytes());
            v1.extend_from_slice(&r.src_mac.octets());
        }
        let restored = read_binary(v1.as_slice()).unwrap();
        assert_eq!(restored, t);
        assert!(restored.records().iter().all(|r| r.fp == 0));
        // Unknown future versions are rejected, not misparsed.
        let mut v9 = v1.clone();
        v9[4..6].copy_from_slice(&9u16.to_be_bytes());
        assert!(matches!(
            read_binary(v9.as_slice()),
            Err(TraceError::InvalidRecord("format version"))
        ));
    }

    #[test]
    fn a_header_claiming_2_pow_32_records_is_truncated_not_an_allocation() {
        // 22 header bytes claiming 2^32 records of 36 bytes (160 GiB), then
        // none: nothing is sized from the count.
        let mut head = Vec::new();
        head.extend_from_slice(&TRACE_MAGIC.to_be_bytes());
        head.extend_from_slice(&TRACE_VERSION.to_be_bytes());
        head.extend_from_slice(&60_000_000u64.to_be_bytes());
        head.extend_from_slice(&(1u64 << 32).to_be_bytes());
        let mut reader = RecordReader::binary(head.as_slice()).unwrap();
        assert_eq!(reader.span(), Some(SimDuration::from_secs(60)));
        assert_eq!(reader.next(), None);
        assert!(matches!(reader.finish(), Err(TraceError::Truncated)));
        assert!(matches!(
            read_binary(head.as_slice()),
            Err(TraceError::Truncated)
        ));
    }

    /// Hands out `good` bytes of `bytes`, then fails with a cause other
    /// than running out.
    #[derive(Debug)]
    struct FailingReader<'a> {
        bytes: &'a [u8],
        good: usize,
    }

    impl Read for FailingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.good == 0 {
                return Err(std::io::Error::other("device gone"));
            }
            let n = buf.len().min(self.good).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.good -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_failing_binary_read_is_an_io_error_not_a_truncation() {
        let mut buf = Vec::new();
        sample_trace().write_binary(&mut buf).unwrap();
        // Mid-header.
        let err = RecordReader::binary(FailingReader {
            bytes: &buf,
            good: 10,
        })
        .unwrap_err();
        assert!(
            matches!(&err, TraceError::Io(e) if e.to_string() == "device gone"),
            "{err}"
        );
        // Mid-record: the header and one record and a half read cleanly.
        let mut reader = RecordReader::binary(FailingReader {
            bytes: &buf,
            good: 22 + 36 + 18,
        })
        .unwrap();
        assert_eq!(reader.by_ref().count(), 1);
        let err = reader.finish().unwrap_err();
        assert!(
            matches!(&err, TraceError::Io(e) if e.to_string() == "device gone"),
            "{err}"
        );
        // Running out of bytes is still a truncation.
        let cut = &buf[..22 + 36 + 18];
        let mut reader = RecordReader::binary(cut).unwrap();
        assert_eq!(reader.by_ref().count(), 1);
        assert!(matches!(reader.finish(), Err(TraceError::Truncated)));
    }

    #[test]
    fn the_reader_streams_both_formats_in_arrival_order() {
        let stub: Ipv4Net = "10.1.0.0/16".parse().unwrap();
        let mut t = Trace::new(SimDuration::from_secs(60));
        t.extend(sample_trace().records().iter().rev().copied());
        let mut bin = Vec::new();
        t.write_binary(&mut bin).unwrap();
        let reader = RecordReader::binary(bin.as_slice()).unwrap();
        assert_eq!(reader.span(), Some(t.duration()));
        assert_eq!(reader.collect::<Vec<_>>(), t.records());
        let mut pcap = Vec::new();
        t.write_pcap(&mut pcap).unwrap();
        let reader = RecordReader::pcap(pcap.as_slice(), stub).unwrap();
        assert_eq!(reader.span(), None);
        let times: Vec<SimTime> = reader.map(|r| r.time).collect();
        let expected: Vec<SimTime> = t.records().iter().map(|r| r.time).collect();
        assert_eq!(times, expected);
        // Without a declared span, the duration ends just past the latest
        // record; a capture with no records spans nothing.
        let imported = Trace::read_pcap(pcap.as_slice(), stub).unwrap();
        assert_eq!(imported.duration(), SimDuration::from_micros(59_900_001));
        let mut empty = Vec::new();
        Trace::new(SimDuration::from_secs(5))
            .write_pcap(&mut empty)
            .unwrap();
        let imported = Trace::read_pcap(empty.as_slice(), stub).unwrap();
        assert_eq!(imported.duration(), SimDuration::ZERO);
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace::new(SimDuration::from_secs(40));
        assert!(t.is_empty());
        let counts = t.period_counts(SimDuration::from_secs(20));
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Inbound.reverse(), Direction::Outbound);
        assert_eq!(Direction::Outbound.reverse(), Direction::Inbound);
        assert_eq!(Direction::Inbound.to_string(), "inbound");
    }

    #[test]
    fn period_sample_merge_adds() {
        let mut a = PeriodSample { syn: 3, synack: 2 };
        a.merge(PeriodSample { syn: 10, synack: 1 });
        assert_eq!(a, PeriodSample { syn: 13, synack: 3 });
    }
}
