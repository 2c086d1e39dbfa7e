//! Reader and writer for the classic libpcap capture file format.
//!
//! Implemented from the format specification so the sniffer can consume and
//! produce real capture files: a 24-byte global header (magic, version,
//! timezone, snaplen, link type) followed by per-packet records (16-byte
//! header + captured bytes). Both byte orders and both timestamp
//! resolutions (microsecond magic `0xa1b2c3d4`, nanosecond `0xa1b23c4d`)
//! are supported for reading; writing always emits native microsecond
//! little-endian files, which every tool accepts.
//!
//! ```
//! use syndog_net::pcap::{PcapReader, PcapWriter, PcapPacket};
//! use std::io::Cursor;
//!
//! # fn main() -> Result<(), syndog_net::NetError> {
//! let mut file = Vec::new();
//! let mut writer = PcapWriter::new(&mut file)?;
//! writer.write_packet(&PcapPacket { ts_sec: 10, ts_nanos: 500, data: vec![1, 2, 3] })?;
//! writer.flush()?;
//!
//! let mut reader = PcapReader::new(Cursor::new(file))?;
//! let packet = reader.next_packet()?.unwrap();
//! assert_eq!(packet.data, vec![1, 2, 3]);
//! # Ok(())
//! # }
//! ```

use std::io::{Read, Write};

use crate::error::NetError;

/// Microsecond-resolution magic, as written in native byte order.
pub const MAGIC_MICROS: u32 = 0xa1b2_c3d4;

/// Nanosecond-resolution magic.
pub const MAGIC_NANOS: u32 = 0xa1b2_3c4d;

/// Link type for Ethernet frames (LINKTYPE_ETHERNET).
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Default snapshot length: capture whole packets.
pub const DEFAULT_SNAPLEN: u32 = 65535;

/// One captured packet record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Seconds since the Unix epoch.
    pub ts_sec: u32,
    /// Sub-second part, always stored here in nanoseconds regardless of the
    /// file's resolution.
    pub ts_nanos: u32,
    /// Captured bytes (starting at the link-layer header).
    pub data: Vec<u8>,
}

impl PcapPacket {
    /// The timestamp as a floating-point number of seconds.
    pub fn timestamp_secs(&self) -> f64 {
        f64::from(self.ts_sec) + f64::from(self.ts_nanos) * 1e-9
    }
}

/// File-level metadata from the global header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapHeader {
    /// Major format version (2 for all files in the wild).
    pub version_major: u16,
    /// Minor format version (4 for all files in the wild).
    pub version_minor: u16,
    /// Snapshot length packets were truncated to at capture time.
    pub snaplen: u32,
    /// Link type of the captured frames.
    pub linktype: u32,
    /// Whether record timestamps carry nanoseconds.
    pub nanosecond: bool,
    /// Whether multi-byte fields are big-endian in this file.
    pub big_endian: bool,
}

/// Streaming pcap reader over any [`Read`].
///
/// Generic readers are taken by value; pass `&mut reader` to retain
/// ownership at the call site.
#[derive(Debug)]
pub struct PcapReader<R> {
    inner: R,
    header: PcapHeader,
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the global header.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadPcapMagic`] for unknown magic numbers and I/O
    /// errors from the underlying reader.
    pub fn new(mut inner: R) -> Result<Self, NetError> {
        let mut head = [0u8; 24];
        inner.read_exact(&mut head)?;
        let magic_le = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        let magic_be = u32::from_be_bytes([head[0], head[1], head[2], head[3]]);
        let (big_endian, nanosecond) = match (magic_le, magic_be) {
            (MAGIC_MICROS, _) => (false, false),
            (MAGIC_NANOS, _) => (false, true),
            (_, MAGIC_MICROS) => (true, false),
            (_, MAGIC_NANOS) => (true, true),
            _ => return Err(NetError::BadPcapMagic(magic_le)),
        };
        let u16_at = |bytes: &[u8], at: usize| -> u16 {
            let pair = [bytes[at], bytes[at + 1]];
            if big_endian {
                u16::from_be_bytes(pair)
            } else {
                u16::from_le_bytes(pair)
            }
        };
        let u32_at = |bytes: &[u8], at: usize| -> u32 {
            let quad = [bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]];
            if big_endian {
                u32::from_be_bytes(quad)
            } else {
                u32::from_le_bytes(quad)
            }
        };
        let header = PcapHeader {
            version_major: u16_at(&head, 4),
            version_minor: u16_at(&head, 6),
            snaplen: u32_at(&head, 16),
            linktype: u32_at(&head, 20),
            nanosecond,
            big_endian,
        };
        Ok(PcapReader { inner, header })
    }

    /// The parsed global header.
    pub fn header(&self) -> &PcapHeader {
        &self.header
    }

    /// Reads the next packet record, or `Ok(None)` at a clean end of file.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] if the file ends mid-record, and
    /// [`NetError::InvalidField`] for a captured length beyond the snaplen
    /// sanity bound.
    pub fn next_packet(&mut self) -> Result<Option<PcapPacket>, NetError> {
        let Some(record) = self.next_record()? else {
            return Ok(None);
        };
        let mut data = Vec::new();
        if record.caplen > EAGER_BODY_LEN {
            read_long_body(&mut self.inner, record.caplen, &mut data)?;
        } else {
            data.resize(record.caplen, 0);
            read_short_body(&mut self.inner, &mut data)?;
        }
        Ok(Some(PcapPacket {
            ts_sec: record.ts_sec,
            ts_nanos: record.ts_nanos,
            data,
        }))
    }

    /// Reads the next packet record's bytes directly into `batch`, avoiding
    /// the per-packet `Vec` of [`next_packet`](PcapReader::next_packet).
    ///
    /// On success returns the record's timestamp as `Some((ts_sec,
    /// ts_nanos))`; returns `Ok(None)` at a clean end of file, leaving
    /// `batch` untouched.
    ///
    /// # Errors
    ///
    /// Same conditions as [`next_packet`](PcapReader::next_packet); on error
    /// no frame is appended to `batch`.
    #[inline]
    pub fn next_packet_into(
        &mut self,
        batch: &mut crate::batch::FrameBatch,
    ) -> Result<Option<(u32, u32)>, NetError> {
        let Some(record) = self.next_record()? else {
            return Ok(None);
        };
        let inner = &mut self.inner;
        let caplen = record.caplen;
        if caplen > EAGER_BODY_LEN {
            batch.push_appended(|buffer| read_long_body(inner, caplen, buffer))?;
        } else {
            batch.push_appended(|buffer| {
                let start = buffer.len();
                buffer.resize(start + caplen, 0);
                read_short_body(inner, &mut buffer[start..])
            })?;
        }
        Ok(Some((record.ts_sec, record.ts_nanos)))
    }

    /// Reads and checks the next 16-byte record header, or `Ok(None)` at a
    /// clean end of file.
    fn next_record(&mut self) -> Result<Option<RecordHeader>, NetError> {
        let mut rec = [0u8; 16];
        match self.inner.read_exact(&mut rec) {
            Ok(()) => {}
            Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(err) => return Err(err.into()),
        }
        let u32_at = |at: usize| -> u32 {
            let quad = [rec[at], rec[at + 1], rec[at + 2], rec[at + 3]];
            if self.header.big_endian {
                u32::from_be_bytes(quad)
            } else {
                u32::from_le_bytes(quad)
            }
        };
        let ts_frac = u32_at(4);
        let caplen = u32_at(8);
        // 256 MiB per packet is far beyond any real snaplen; treat it as
        // corruption rather than attempting the read.
        if caplen > MAX_CAPLEN {
            return Err(NetError::InvalidField {
                layer: "pcap record",
                field: "caplen",
                value: u64::from(caplen),
            });
        }
        Ok(Some(RecordHeader {
            ts_sec: u32_at(0),
            ts_nanos: if self.header.nanosecond {
                ts_frac
            } else {
                ts_frac.saturating_mul(1000)
            },
            caplen: caplen as usize,
        }))
    }

    /// Iterates over all remaining packets, stopping at the first error.
    pub fn packets(&mut self) -> Packets<'_, R> {
        Packets { reader: self }
    }
}

/// Largest captured length a record may claim.
const MAX_CAPLEN: u32 = 1 << 28;

/// Record bodies up to this length are read into a zero-filled slot in
/// one go; longer ones grow with the bytes actually read.
const EAGER_BODY_LEN: usize = 64 * 1024;

/// A record header's fields, timestamp already in nanoseconds.
struct RecordHeader {
    ts_sec: u32,
    ts_nanos: u32,
    caplen: usize,
}

/// Fills `slot` with a record body of at most [`EAGER_BODY_LEN`] bytes.
/// `read_exact` is the fastest read for buffered readers, but it cannot
/// say how far it got, so a truncated short body reports `available: 0`.
fn read_short_body<R: Read>(inner: &mut R, slot: &mut [u8]) -> Result<(), NetError> {
    inner.read_exact(slot).map_err(|err| {
        if err.kind() == std::io::ErrorKind::UnexpectedEof {
            NetError::Truncated {
                layer: "pcap record",
                needed: slot.len(),
                available: 0,
            }
        } else {
            NetError::Io(err)
        }
    })
}

/// Appends a body longer than [`EAGER_BODY_LEN`] through
/// `take(caplen).read_to_end`, so a record claiming more bytes than the
/// file holds costs memory for the bytes present, not for the claim, and
/// a truncation reports them.
#[cold]
#[inline(never)]
fn read_long_body<R: Read>(
    inner: &mut R,
    caplen: usize,
    out: &mut Vec<u8>,
) -> Result<(), NetError> {
    let read = inner.take(caplen as u64).read_to_end(out)?;
    if read < caplen {
        return Err(NetError::Truncated {
            layer: "pcap record",
            needed: caplen,
            available: read,
        });
    }
    Ok(())
}

/// Iterator over the packets of a [`PcapReader`], produced by
/// [`PcapReader::packets`].
#[derive(Debug)]
pub struct Packets<'a, R> {
    reader: &'a mut PcapReader<R>,
}

impl<R: Read> Iterator for Packets<'_, R> {
    type Item = Result<PcapPacket, NetError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.next_packet().transpose()
    }
}

/// Streaming pcap writer over any [`Write`].
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    inner: W,
    snaplen: u32,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header for an Ethernet capture with the default
    /// snaplen.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new(inner: W) -> Result<Self, NetError> {
        Self::with_options(inner, DEFAULT_SNAPLEN, LINKTYPE_ETHERNET)
    }

    /// Writes the global header with an explicit snaplen and link type.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn with_options(mut inner: W, snaplen: u32, linktype: u32) -> Result<Self, NetError> {
        inner.write_all(&MAGIC_MICROS.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&snaplen.to_le_bytes())?;
        inner.write_all(&linktype.to_le_bytes())?;
        Ok(PcapWriter { inner, snaplen })
    }

    /// Appends one packet record, truncating `data` to the snaplen.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_packet(&mut self, packet: &PcapPacket) -> Result<(), NetError> {
        let caplen = packet.data.len().min(self.snaplen as usize) as u32;
        self.inner.write_all(&packet.ts_sec.to_le_bytes())?;
        self.inner
            .write_all(&(packet.ts_nanos / 1000).to_le_bytes())?;
        self.inner.write_all(&caplen.to_le_bytes())?;
        self.inner
            .write_all(&(packet.data.len() as u32).to_le_bytes())?;
        self.inner.write_all(&packet.data[..caplen as usize])?;
        Ok(())
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.inner.flush()?;
        Ok(())
    }

    /// Consumes the writer and returns the underlying [`Write`].
    pub fn into_inner(self) -> W {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_packets() -> Vec<PcapPacket> {
        vec![
            PcapPacket {
                ts_sec: 1,
                ts_nanos: 250_000,
                data: vec![1, 2, 3, 4],
            },
            PcapPacket {
                ts_sec: 2,
                ts_nanos: 999_999_000,
                data: vec![],
            },
            PcapPacket {
                ts_sec: 3,
                ts_nanos: 0,
                data: vec![0xff; 100],
            },
        ]
    }

    fn write_all(packets: &[PcapPacket]) -> Vec<u8> {
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file).unwrap();
        for packet in packets {
            writer.write_packet(packet).unwrap();
        }
        writer.flush().unwrap();
        file
    }

    #[test]
    fn roundtrip_microsecond_le() {
        let original = sample_packets();
        let file = write_all(&original);
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        assert!(!reader.header().nanosecond);
        assert!(!reader.header().big_endian);
        assert_eq!(reader.header().linktype, LINKTYPE_ETHERNET);
        assert_eq!(reader.header().version_major, 2);
        let read: Vec<_> = reader.packets().collect::<Result<_, _>>().unwrap();
        assert_eq!(read.len(), original.len());
        for (a, b) in read.iter().zip(&original) {
            assert_eq!(a.ts_sec, b.ts_sec);
            // Microsecond files round sub-microsecond parts down.
            assert_eq!(a.ts_nanos, b.ts_nanos / 1000 * 1000);
            assert_eq!(a.data, b.data);
        }
    }

    /// Hand-builds a big-endian nanosecond file to exercise the foreign
    /// byte-order path.
    #[test]
    fn reads_big_endian_nanosecond_files() {
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC_NANOS.to_be_bytes());
        file.extend_from_slice(&2u16.to_be_bytes());
        file.extend_from_slice(&4u16.to_be_bytes());
        file.extend_from_slice(&0i32.to_be_bytes());
        file.extend_from_slice(&0u32.to_be_bytes());
        file.extend_from_slice(&1500u32.to_be_bytes());
        file.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        file.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        file.extend_from_slice(&123_456_789u32.to_be_bytes()); // ts_nanos
        file.extend_from_slice(&3u32.to_be_bytes()); // caplen
        file.extend_from_slice(&3u32.to_be_bytes()); // origlen
        file.extend_from_slice(&[9, 8, 7]);
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        assert!(reader.header().big_endian);
        assert!(reader.header().nanosecond);
        assert_eq!(reader.header().snaplen, 1500);
        let packet = reader.next_packet().unwrap().unwrap();
        assert_eq!(packet.ts_sec, 7);
        assert_eq!(packet.ts_nanos, 123_456_789);
        assert_eq!(packet.data, vec![9, 8, 7]);
        assert!(reader.next_packet().unwrap().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = PcapReader::new(Cursor::new(vec![0u8; 24])).unwrap_err();
        assert!(matches!(err, NetError::BadPcapMagic(0)));
    }

    #[test]
    fn truncated_global_header_is_io_error() {
        assert!(PcapReader::new(Cursor::new(vec![0u8; 10])).is_err());
    }

    #[test]
    fn truncated_record_body_reported() {
        let mut file = write_all(&sample_packets()[..1]);
        file.truncate(file.len() - 2);
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        let err = reader.next_packet().unwrap_err();
        assert!(matches!(
            err,
            NetError::Truncated {
                layer: "pcap record",
                ..
            }
        ));
    }

    #[test]
    fn snaplen_truncates_written_packets() {
        let mut file = Vec::new();
        let mut writer = PcapWriter::with_options(&mut file, 8, LINKTYPE_ETHERNET).unwrap();
        writer
            .write_packet(&PcapPacket {
                ts_sec: 0,
                ts_nanos: 0,
                data: vec![0xaa; 64],
            })
            .unwrap();
        writer.flush().unwrap();
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        let packet = reader.next_packet().unwrap().unwrap();
        assert_eq!(packet.data.len(), 8);
    }

    #[test]
    fn insane_caplen_rejected_without_allocation() {
        let mut file = write_all(&[]);
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&u32::MAX.to_le_bytes()); // caplen
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        let err = reader.next_packet().unwrap_err();
        assert!(matches!(
            err,
            NetError::InvalidField {
                field: "caplen",
                ..
            }
        ));
    }

    /// A 50-byte file whose one record claims 2^28 bytes and holds 10:
    /// both readers report the 10 bytes present, and neither reserves the
    /// claim (the arena would otherwise hold 256 MiB of zeroes).
    #[test]
    fn oversized_caplen_claim_costs_only_the_bytes_present() {
        let mut file = write_all(&[]);
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&0u32.to_le_bytes());
        file.extend_from_slice(&MAX_CAPLEN.to_le_bytes()); // caplen
        file.extend_from_slice(&MAX_CAPLEN.to_le_bytes());
        file.extend_from_slice(&[0xab; 10]);
        assert_eq!(file.len(), 50);
        let truncated = |err: NetError| {
            matches!(
                err,
                NetError::Truncated {
                    layer: "pcap record",
                    needed,
                    available: 10,
                } if needed == MAX_CAPLEN as usize
            )
        };
        let mut reader = PcapReader::new(Cursor::new(file.clone())).unwrap();
        assert!(truncated(reader.next_packet().unwrap_err()));
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        let mut batch = crate::batch::FrameBatch::new();
        assert!(truncated(reader.next_packet_into(&mut batch).unwrap_err()));
        assert!(batch.is_empty());
        let mut body = Vec::new();
        let err = read_long_body(&mut &[0xab; 10][..], MAX_CAPLEN as usize, &mut body).unwrap_err();
        assert!(truncated(err));
        assert!(
            body.capacity() < 1 << 20,
            "reserved {} bytes",
            body.capacity()
        );
    }

    /// Records over the 64 KiB eager-read length come back whole from
    /// both readers, and the record after one still lines up.
    #[test]
    fn long_records_read_whole() {
        let long: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let mut file = Vec::new();
        let mut writer = PcapWriter::with_options(&mut file, 1 << 20, LINKTYPE_ETHERNET).unwrap();
        for data in [long.clone(), vec![7; 3]] {
            writer
                .write_packet(&PcapPacket {
                    ts_sec: 1,
                    ts_nanos: 0,
                    data,
                })
                .unwrap();
        }
        let mut reader = PcapReader::new(Cursor::new(file.clone())).unwrap();
        assert_eq!(reader.next_packet().unwrap().unwrap().data, long);
        assert_eq!(reader.next_packet().unwrap().unwrap().data, vec![7; 3]);
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        let mut batch = crate::batch::FrameBatch::new();
        while reader.next_packet_into(&mut batch).unwrap().is_some() {}
        assert_eq!(batch.get(0).unwrap(), long.as_slice());
        assert_eq!(batch.get(1).unwrap(), &[7, 7, 7]);
    }

    #[test]
    fn next_packet_into_matches_next_packet() {
        let original = sample_packets();
        let file = write_all(&original);
        let mut by_value = PcapReader::new(Cursor::new(file.clone())).unwrap();
        let mut into_batch = PcapReader::new(Cursor::new(file)).unwrap();
        let mut batch = crate::batch::FrameBatch::new();
        let mut stamps = Vec::new();
        while let Some(stamp) = into_batch.next_packet_into(&mut batch).unwrap() {
            stamps.push(stamp);
        }
        assert_eq!(batch.len(), original.len());
        for (i, stamp) in stamps.iter().enumerate() {
            let expected = by_value.next_packet().unwrap().unwrap();
            assert_eq!(*stamp, (expected.ts_sec, expected.ts_nanos));
            assert_eq!(batch.get(i).unwrap(), expected.data.as_slice());
        }
        assert!(by_value.next_packet().unwrap().is_none());
        // A clean EOF leaves the batch untouched.
        assert!(into_batch.next_packet_into(&mut batch).unwrap().is_none());
        assert_eq!(batch.len(), original.len());
    }

    #[test]
    fn next_packet_into_truncated_body_leaves_batch_clean() {
        let mut file = write_all(&sample_packets()[..1]);
        file.truncate(file.len() - 2);
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        let mut batch = crate::batch::FrameBatch::new();
        let err = reader.next_packet_into(&mut batch).unwrap_err();
        assert!(matches!(
            err,
            NetError::Truncated {
                layer: "pcap record",
                ..
            }
        ));
        assert!(batch.is_empty());
    }

    #[test]
    fn empty_file_yields_no_packets() {
        let file = write_all(&[]);
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        assert_eq!(reader.packets().count(), 0);
    }

    #[test]
    fn timestamp_secs_combines_parts() {
        let packet = PcapPacket {
            ts_sec: 2,
            ts_nanos: 500_000_000,
            data: vec![],
        };
        assert!((packet.timestamp_secs() - 2.5).abs() < 1e-9);
    }
}
