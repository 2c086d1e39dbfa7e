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
//! use syndog_net::pcap::{PcapFrame, PcapReader, PcapWriter};
//! use std::io::Cursor;
//!
//! # fn main() -> Result<(), syndog_net::NetError> {
//! let mut file = Vec::new();
//! let mut writer = PcapWriter::new(&mut file)?;
//! writer.write_frame(&PcapFrame { ts_sec: 10, ts_nanos: 500, data: &[1, 2, 3] })?;
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

/// One packet record lent by [`PcapReader::next_frame`] (the body is a
/// slice of the reader's block buffer, valid until the next read) or to
/// [`PcapWriter::write_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapFrame<'a> {
    /// Seconds since the Unix epoch.
    pub ts_sec: u32,
    /// Sub-second part in nanoseconds, as in [`PcapPacket::ts_nanos`].
    pub ts_nanos: u32,
    /// Captured bytes (starting at the link-layer header).
    pub data: &'a [u8],
}

impl PcapFrame<'_> {
    /// The timestamp in whole microseconds since the Unix epoch.
    pub fn timestamp_micros(&self) -> u64 {
        u64::from(self.ts_sec) * 1_000_000 + u64::from(self.ts_nanos) / 1000
    }
}

/// Streaming pcap reader over any [`Read`].
///
/// Records are read in 64 KiB blocks into one private buffer and lent in
/// place by [`next_frame`](PcapReader::next_frame), so the underlying
/// reader needs no buffering of its own. Generic readers are taken by
/// value; pass `&mut reader` to retain ownership at the call site.
#[derive(Debug)]
pub struct PcapReader<R> {
    inner: R,
    header: PcapHeader,
    /// Block buffer; bytes `start..end` are read but not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
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
        let u16_at = |at: usize| -> u16 {
            let pair = [head[at], head[at + 1]];
            if big_endian {
                u16::from_be_bytes(pair)
            } else {
                u16::from_le_bytes(pair)
            }
        };
        let header = PcapHeader {
            version_major: u16_at(4),
            version_minor: u16_at(6),
            snaplen: u32_at(&head, 16, big_endian),
            linktype: u32_at(&head, 20, big_endian),
            nanosecond,
            big_endian,
        };
        Ok(PcapReader {
            inner,
            header,
            buf: vec![0; BLOCK_LEN],
            start: 0,
            end: 0,
        })
    }

    /// The parsed global header.
    pub fn header(&self) -> &PcapHeader {
        &self.header
    }

    /// Reads the next packet record into an owned [`PcapPacket`], or
    /// `Ok(None)` at a clean end of file.
    ///
    /// # Errors
    ///
    /// As [`next_frame`](PcapReader::next_frame).
    pub fn next_packet(&mut self) -> Result<Option<PcapPacket>, NetError> {
        Ok(self.next_frame()?.map(|frame| PcapPacket {
            ts_sec: frame.ts_sec,
            ts_nanos: frame.ts_nanos,
            data: frame.data.to_vec(),
        }))
    }

    /// Lends the next packet record in place, or returns `Ok(None)` at a
    /// clean end of file (which includes a partial record header).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] with the body bytes present if the
    /// file ends mid-body, [`NetError::InvalidField`] for a captured length
    /// beyond the snaplen sanity bound, and I/O errors from the underlying
    /// reader.
    #[inline]
    pub fn next_frame(&mut self) -> Result<Option<PcapFrame<'_>>, NetError> {
        if self.end - self.start < RECORD_HEADER_LEN && !self.fill(RECORD_HEADER_LEN)? {
            return Ok(None);
        }
        let rec = &self.buf[self.start..self.start + RECORD_HEADER_LEN];
        let word = |at| u32_at(rec, at, self.header.big_endian);
        let (ts_sec, ts_frac, caplen) = (word(0), word(4), word(8));
        // 256 MiB per packet is far beyond any real snaplen; treat it as
        // corruption rather than attempting the read.
        if caplen > MAX_CAPLEN {
            self.start += RECORD_HEADER_LEN;
            return Err(NetError::InvalidField {
                layer: "pcap record",
                field: "caplen",
                value: u64::from(caplen),
            });
        }
        let len = RECORD_HEADER_LEN + caplen as usize;
        if self.end - self.start < len && !self.fill(len)? {
            let available = self.end - self.start - RECORD_HEADER_LEN;
            self.start = self.end;
            return Err(NetError::Truncated {
                layer: "pcap record",
                needed: caplen as usize,
                available,
            });
        }
        let body = self.start + RECORD_HEADER_LEN..self.start + len;
        self.start += len;
        Ok(Some(PcapFrame {
            ts_sec,
            ts_nanos: if self.header.nanosecond {
                ts_frac
            } else {
                ts_frac.saturating_mul(1000)
            },
            data: &self.buf[body],
        }))
    }

    /// Reads until `need` unconsumed bytes are buffered, returning `false`
    /// if the file ends first. Reading stops as soon as they are, so a
    /// pipe is never waited on for more than the current record. The
    /// buffer doubles only when full, so a record that claims more bytes
    /// than the file holds costs memory for the bytes present.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, need: usize) -> Result<bool, NetError> {
        if self.buf.len() - self.start < need {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        while self.end - self.start < need {
            if self.end == self.buf.len() {
                self.buf.resize(2 * self.buf.len(), 0);
            }
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(read) => self.end += read,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err.into()),
            }
        }
        Ok(true)
    }
}

/// The `u32` at `at` in `bytes`, in the file's byte order.
fn u32_at(bytes: &[u8], at: usize, big_endian: bool) -> u32 {
    let quad = [bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]];
    if big_endian {
        u32::from_be_bytes(quad)
    } else {
        u32::from_le_bytes(quad)
    }
}

/// Largest captured length a record may claim.
const MAX_CAPLEN: u32 = 1 << 28;

/// Length of a per-packet record header.
const RECORD_HEADER_LEN: usize = 16;

/// Bytes [`PcapReader`] asks the underlying reader for at a time, and the
/// starting size of its buffer.
const BLOCK_LEN: usize = 64 * 1024;

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

    /// Appends one packet record, truncating `data` to the snaplen: the
    /// 16-byte record header, then the body as lent.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_frame(&mut self, frame: &PcapFrame<'_>) -> Result<(), NetError> {
        let caplen = frame.data.len().min(self.snaplen as usize);
        let mut header = [0u8; RECORD_HEADER_LEN];
        header[0..4].copy_from_slice(&frame.ts_sec.to_le_bytes());
        header[4..8].copy_from_slice(&(frame.ts_nanos / 1000).to_le_bytes());
        header[8..12].copy_from_slice(&(caplen as u32).to_le_bytes());
        header[12..16].copy_from_slice(&(frame.data.len() as u32).to_le_bytes());
        self.inner.write_all(&header)?;
        self.inner.write_all(&frame.data[..caplen])?;
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

    fn frame(packet: &PcapPacket) -> PcapFrame<'_> {
        PcapFrame {
            ts_sec: packet.ts_sec,
            ts_nanos: packet.ts_nanos,
            data: &packet.data,
        }
    }

    fn write_all(packets: &[PcapPacket]) -> Vec<u8> {
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file).unwrap();
        for packet in packets {
            writer.write_frame(&frame(packet)).unwrap();
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
        for b in &original {
            let a = reader.next_packet().unwrap().unwrap();
            assert_eq!(a.ts_sec, b.ts_sec);
            // Microsecond files round sub-microsecond parts down.
            assert_eq!(a.ts_nanos, b.ts_nanos / 1000 * 1000);
            assert_eq!(a.data, b.data);
        }
        assert!(reader.next_packet().unwrap().is_none());
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

    /// A body cut short reports the bytes present, however short the
    /// record, and a partial record header is a clean end of file.
    #[test]
    fn truncated_record_body_reported() {
        let full = write_all(&sample_packets()[..1]);
        let mut reader = PcapReader::new(Cursor::new(&full[..full.len() - 2])).unwrap();
        let err = reader.next_packet().unwrap_err();
        assert!(matches!(
            err,
            NetError::Truncated {
                layer: "pcap record",
                needed: 4,
                available: 2,
            }
        ));
        let mut reader = PcapReader::new(Cursor::new(&full[..24 + 9])).unwrap();
        assert!(reader.next_frame().unwrap().is_none());
    }

    #[test]
    fn snaplen_truncates_written_packets() {
        let mut file = Vec::new();
        let mut writer = PcapWriter::with_options(&mut file, 8, LINKTYPE_ETHERNET).unwrap();
        writer
            .write_frame(&PcapFrame {
                ts_sec: 0,
                ts_nanos: 0,
                data: &[0xaa; 64],
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
    /// the reader reports the 10 bytes present, and its buffer never grows
    /// toward the claim.
    #[test]
    fn oversized_caplen_claim_costs_only_the_bytes_present() {
        let mut file = write_all(&[]);
        for word in [0, 0, MAX_CAPLEN, MAX_CAPLEN] {
            file.extend_from_slice(&word.to_le_bytes());
        }
        file.extend_from_slice(&[0xab; 10]);
        assert_eq!(file.len(), 50);
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        assert!(matches!(
            reader.next_frame().unwrap_err(),
            NetError::Truncated {
                layer: "pcap record",
                needed,
                available: 10,
            } if needed == MAX_CAPLEN as usize
        ));
        let reserved = reader.buf.capacity();
        assert!(reserved < 1 << 20, "reserved {reserved} bytes");
        // The cut record is consumed: the stream then ends cleanly.
        assert!(reader.next_frame().unwrap().is_none());
    }

    /// Records longer than a block come back whole, and the record after
    /// one still lines up.
    #[test]
    fn long_records_read_whole() {
        let long: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let mut file = Vec::new();
        let mut writer = PcapWriter::with_options(&mut file, 1 << 20, LINKTYPE_ETHERNET).unwrap();
        for data in [&long[..], &[7; 3]] {
            writer
                .write_frame(&PcapFrame {
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
        assert_eq!(reader.next_frame().unwrap().unwrap().data, long.as_slice());
        assert_eq!(reader.next_frame().unwrap().unwrap().data, &[7, 7, 7]);
        assert!(reader.next_frame().unwrap().is_none());
    }

    /// A read stops once the record is buffered: a pipe holding one
    /// record lends it without waiting for a whole block.
    #[test]
    fn a_record_is_lent_without_reading_past_it() {
        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                panic!("read past the buffered record")
            }
        }
        let file = write_all(&sample_packets()[..1]);
        let mut reader = PcapReader::new(Cursor::new(file).chain(Stalled)).unwrap();
        assert_eq!(reader.next_frame().unwrap().unwrap().data, &[1, 2, 3, 4]);
    }

    #[test]
    fn empty_file_yields_no_packets() {
        let file = write_all(&[]);
        let mut reader = PcapReader::new(Cursor::new(file)).unwrap();
        assert!(reader.next_packet().unwrap().is_none());
    }
}
