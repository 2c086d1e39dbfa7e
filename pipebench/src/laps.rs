//! Segment timing for the untraced rounds and the set-up builds.
//!
//! A round is cut into segments at fixed points of its input: every
//! [`MARK_BYTES`] of pcap a path reads, every [`MARK_RECORDS`] records it
//! judges, every [`MARK_STUBS`] fleet stubs it folds. The same input cuts
//! every round at the same points, so segment `k` does the same work in
//! every round. [`Fastest`] keeps each segment's fastest pass over the
//! measured rounds; their sum is the round time `items_per_s` reports.
//! A set-up build is cut the same way: after the trace is generated,
//! after the reference detector has run, and every [`MARK_BYTES`] of pcap
//! it writes; `setup_s` is the sum of those segments' fastest passes.
//!
//! Why not the fastest whole round: on a shared host, other tenants slow
//! the CPU in bursts of tens of milliseconds that come and go within a
//! second, and in stretches the bursts cover every 0.1–0.7 s round. A
//! segment of a millisecond or two still finds a quiet moment in one of
//! the rounds, so the sum of segment minimums moves little from run to
//! run while any whole-round figure moves with the host's load. It cannot
//! help when the host slows evenly for tens of seconds: then every pass of
//! every segment is slow, and so is the run.

use std::io::{self, Read, Write};
use std::time::Instant;

/// Pcap bytes between marks (1 MiB: ≈ 1.5 ms of `Trace::read_pcap`).
pub const MARK_BYTES: usize = 1 << 20;
/// Records judged between marks on the record path (≈ 1–2 ms).
pub const MARK_RECORDS: usize = 1 << 14;
/// Fleet stubs folded between marks (≈ 1.5 ms).
pub const MARK_STUBS: usize = 8;

/// The marks of one round.
#[derive(Debug, Default)]
pub struct Laps {
    marks: Vec<Instant>,
}

impl Laps {
    /// Starts a round: the first mark.
    pub fn start(&mut self) {
        self.marks.clear();
        self.marks.push(Instant::now());
    }

    /// Ends the segment running now and starts the next.
    #[inline]
    pub fn mark(&mut self) {
        self.marks.push(Instant::now());
    }

    /// Seconds from the first mark to the last.
    pub fn total(&self) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some(first), Some(last)) => last.duration_since(*first).as_secs_f64(),
            _ => 0.0,
        }
    }

    fn segments(&self) -> impl Iterator<Item = f64> + '_ {
        self.marks
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
    }
}

/// A reader (or writer) that marks a lap each time the bytes it has
/// handed out (or taken in) cross another [`MARK_BYTES`].
pub struct Marked<'a, R> {
    inner: R,
    read: usize,
    next: usize,
    laps: &'a mut Laps,
}

impl<'a, R> Marked<'a, R> {
    /// Wraps `inner`, marking laps on `laps`.
    pub fn new(inner: R, laps: &'a mut Laps) -> Self {
        Marked {
            inner,
            read: 0,
            next: MARK_BYTES,
            laps,
        }
    }

    #[inline]
    fn count(&mut self, n: usize) {
        self.read += n;
        if self.read >= self.next {
            self.laps.mark();
            self.next += MARK_BYTES;
        }
    }
}

impl<R: Read> Read for Marked<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count(n);
        Ok(n)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact(buf)?;
        self.count(buf.len());
        Ok(())
    }
}

impl<W: Write> Write for Marked<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.count(n);
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)?;
        self.count(buf.len());
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Each segment's fastest time over the rounds added so far.
#[derive(Debug, Default)]
pub struct Fastest {
    best: Vec<f64>,
    rounds: usize,
}

impl Fastest {
    /// Folds one round's segments in.
    ///
    /// # Panics
    ///
    /// Panics if the round has a different number of segments than the
    /// rounds before it: the input fixes the cut points.
    pub fn add(&mut self, laps: &Laps) {
        if self.rounds == 0 {
            self.best = laps.segments().collect();
        } else {
            let mut segments = 0;
            for (best, secs) in self.best.iter_mut().zip(laps.segments()) {
                *best = best.min(secs);
                segments += 1;
            }
            assert_eq!(
                (segments, laps.marks.len()),
                (self.best.len(), self.best.len() + 1),
                "every round is cut at the same points"
            );
        }
        self.rounds += 1;
    }

    /// Segments per round.
    pub fn segments(&self) -> usize {
        self.best.len()
    }

    /// The sum of the segments' fastest times, in seconds.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marked_reader_and_writer_mark_every_mark_bytes() {
        let bytes = vec![7u8; 3 * MARK_BYTES + 10];
        let mut laps = Laps::default();
        laps.start();
        let mut sink = Vec::new();
        let mut reader = Marked::new(bytes.as_slice(), &mut laps);
        let mut chunk = [0u8; 4096];
        loop {
            let n = reader.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            sink.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(sink, bytes);
        assert_eq!(laps.marks.len(), 1 + 3);

        laps.start();
        let mut copy = Vec::new();
        let mut writer = Marked::new(&mut copy, &mut laps);
        for chunk in bytes.chunks(1000) {
            writer.write_all(chunk).unwrap();
        }
        assert_eq!(copy, bytes);
        assert_eq!(laps.marks.len(), 1 + 3);
    }

    #[test]
    fn fastest_keeps_each_segments_minimum() {
        let mut fastest = Fastest::default();
        for _ in 0..3 {
            let mut laps = Laps::default();
            laps.start();
            laps.mark();
            laps.mark();
            fastest.add(&laps);
        }
        assert_eq!(fastest.segments(), 2);
        assert!(fastest.total() >= 0.0);
    }
}
