//! Batched frame ingestion: the arena that carries frames through the
//! pipeline and the flat tally the classifier folds a batch into.
//!
//! The paper's detector (§2) never needs frames individually once they are
//! classified — each observation period only needs *how many* segments of
//! each kind passed the sniffer. The hot path therefore wants two things the
//! per-frame API cannot give it:
//!
//! - **one allocation per batch, not per frame** — [`FrameBatch`] stores all
//!   frames back-to-back in a single buffer and hands them out as borrowed
//!   `&[u8]` slices, so refilling a warm batch allocates nothing at all;
//! - **one counter bump per frame, not one channel message** —
//!   [`classify_batch`] folds a whole batch into a [`ClassCounts`] tally that
//!   downstream consumers merge with a handful of atomic adds.
//!
//! [`classify_batch`] is definitionally equivalent to mapping
//! [`classify`](crate::classify::classify()) over the batch: a property test in
//! `tests/prop.rs` pins that equivalence over arbitrary frame mixes.
//!
//! ```
//! use syndog_net::batch::{classify_batch, FrameBatch};
//! use syndog_net::classify::SegmentKind;
//! use syndog_net::packet::PacketBuilder;
//!
//! # fn main() -> Result<(), syndog_net::NetError> {
//! let syn = PacketBuilder::tcp_syn("10.0.0.7:1025".parse().unwrap(),
//!                                  "192.0.2.80:80".parse().unwrap())
//!     .build()?;
//! let mut batch = FrameBatch::new();
//! batch.push(&syn);
//! batch.push(&syn);
//! let counts = classify_batch(&batch);
//! assert_eq!(counts.get(SegmentKind::Syn), 2);
//! # Ok(())
//! # }
//! ```

use crate::classify::{classify, SegmentKind};
use crate::ethernet;

/// A contiguous arena of raw Ethernet frames.
///
/// Frames are appended with [`push`](FrameBatch::push) and read back as
/// borrowed slices. [`clear`] keeps the allocations, so a recycled batch
/// reaches a steady state where the hot path performs no allocation per
/// frame or per batch.
///
/// [`clear`]: FrameBatch::clear
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameBatch {
    /// All frame bytes, back to back.
    buffer: Vec<u8>,
    /// End offset of each frame in `buffer`; frame `i` spans
    /// `ends[i - 1]..ends[i]` (with an implicit leading 0).
    ends: Vec<usize>,
}

impl FrameBatch {
    /// An empty batch with no reserved space.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// An empty batch with space reserved for `frames` frames totalling
    /// `bytes` bytes.
    pub fn with_capacity(frames: usize, bytes: usize) -> Self {
        FrameBatch {
            buffer: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(frames),
        }
    }

    /// Appends a frame by copying its bytes into the arena.
    pub fn push(&mut self, frame: &[u8]) {
        self.buffer.extend_from_slice(frame);
        self.ends.push(self.buffer.len());
    }

    /// Number of frames in the batch.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Removes all frames, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.buffer.clear();
        self.ends.clear();
    }

    /// The bytes of frame `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<&[u8]> {
        let end = *self.ends.get(index)?;
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        Some(&self.buffer[start..end])
    }

    /// Iterates over the frames as borrowed slices.
    pub fn iter(&self) -> Frames<'_> {
        Frames {
            batch: self,
            next: 0,
            start: 0,
        }
    }
}

impl<'a> IntoIterator for &'a FrameBatch {
    type Item = &'a [u8];
    type IntoIter = Frames<'a>;

    fn into_iter(self) -> Frames<'a> {
        self.iter()
    }
}

impl<F: AsRef<[u8]>> FromIterator<F> for FrameBatch {
    fn from_iter<I: IntoIterator<Item = F>>(frames: I) -> Self {
        let mut batch = FrameBatch::new();
        for frame in frames {
            batch.push(frame.as_ref());
        }
        batch
    }
}

/// Iterator over the frames of a [`FrameBatch`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    batch: &'a FrameBatch,
    next: usize,
    start: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let end = *self.batch.ends.get(self.next)?;
        let frame = &self.batch.buffer[self.start..end];
        self.start = end;
        self.next += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.batch.ends.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Frames<'_> {}

/// A flat tally of classification outcomes: one counter per
/// [`SegmentKind`] plus one for frames the classifier rejected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    counts: [u64; SegmentKind::ALL.len()],
    malformed: u64,
}

impl ClassCounts {
    /// An all-zero tally.
    pub fn new() -> Self {
        ClassCounts::default()
    }

    /// Adds one frame of the given kind.
    pub fn record(&mut self, kind: SegmentKind) {
        self.counts[kind.index()] += 1;
    }

    /// Adds one frame the classifier rejected (truncated/invalid).
    pub fn record_malformed(&mut self) {
        self.malformed += 1;
    }

    /// Adds `count` frames of the given kind at once (used when rebuilding
    /// a tally from externally accumulated counters, e.g. the concurrent
    /// router's atomics).
    pub fn add(&mut self, kind: SegmentKind, count: u64) {
        self.counts[kind.index()] += count;
    }

    /// Adds `count` malformed frames at once.
    pub fn add_malformed(&mut self, count: u64) {
        self.malformed += count;
    }

    /// Adds one classification outcome, well-formed or not.
    pub fn record_outcome<E>(&mut self, outcome: &Result<SegmentKind, E>) {
        match outcome {
            Ok(kind) => self.record(*kind),
            Err(_) => self.record_malformed(),
        }
    }

    /// The tally for one kind.
    pub fn get(&self, kind: SegmentKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Frames the classifier rejected.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// SYN segments — what the outbound (first-mile) sniffer counts.
    pub fn syn(&self) -> u64 {
        self.get(SegmentKind::Syn)
    }

    /// SYN/ACK segments — what the inbound (last-mile) sniffer counts.
    pub fn synack(&self) -> u64 {
        self.get(SegmentKind::SynAck)
    }

    /// All frames recorded, classified or malformed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.malformed
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &ClassCounts) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.malformed += other.malformed;
    }

    /// Iterates `(kind, count)` pairs in [`SegmentKind::ALL`] order,
    /// including zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentKind, u64)> + '_ {
        SegmentKind::ALL
            .iter()
            .map(move |&kind| (kind, self.get(kind)))
    }
}

/// Classifies every frame in a batch into one tally.
///
/// Equivalent to folding [`classify`] over [`FrameBatch::iter`] — the
/// classification of each frame is identical; only the bookkeeping is
/// batched. Malformed frames land in [`ClassCounts::malformed`] rather than
/// aborting the batch, because one corrupt capture record must not stall a
/// sniffer (the concurrent router's resilience tests rely on this).
///
/// Internally this takes a SWAR fast path: groups of [`SWAR_LANES`] frames
/// are decoded together, one header byte per u64 lane, with all
/// EtherType/version/protocol/fragment/flag tests done branchlessly across
/// the whole group. Frames that fail the fast-path preconditions (shorter
/// than [`SWAR_MIN_FRAME_LEN`], IPv4 options, foreign EtherType, …) fall
/// back to the scalar [`classify`] individually, so the result is exactly
/// [`classify_batch_scalar`] — a property test in `tests/prop.rs` pins that
/// equivalence over arbitrary frame mixes.
pub fn classify_batch(batch: &FrameBatch) -> ClassCounts {
    classify_batch_sink(batch, |_| {})
}

/// [`classify_batch`] with a per-SYN sink: `on_syn` is invoked with the raw
/// frame bytes of every frame that classifies as a pure SYN, exactly once
/// each (order within a SWAR group may interleave slow-path lanes ahead of
/// fast-path ones). This is the fingerprinting hook — the sink typically runs
/// `syndog_fingerprint::extract_syn` on the ~handful of SYN frames while
/// the non-SYN bulk of the batch stays on the branchless SWAR path. With a
/// no-op sink this monomorphizes to exactly [`classify_batch`] (which is
/// now defined as that instantiation), so the fast path pays nothing.
pub fn classify_batch_sink(batch: &FrameBatch, mut on_syn: impl FnMut(&[u8])) -> ClassCounts {
    let mut counts = ClassCounts::new();
    let ends = &batch.ends;
    let buf = &batch.buffer;
    // Lanes too short to hold a 20-byte-IHL TCP flags byte borrow this
    // all-zero head: EtherType 0x0000 fails the IPv4 test, so the SWAR
    // decode classifies them as slow lanes and routes them through the
    // scalar fallback individually — one short frame costs one scalar
    // call, never the whole group's fast path.
    const SHORT_LANE: &[u8; SWAR_MIN_FRAME_LEN] = &[0u8; SWAR_MIN_FRAME_LEN];
    let mut start = 0usize;
    let mut i = 0usize;
    while i + SWAR_LANES <= ends.len() {
        let mut starts = [0usize; SWAR_LANES];
        let mut cursor = start;
        for (lane, slot) in starts.iter_mut().enumerate() {
            *slot = cursor;
            cursor = ends[i + lane];
        }
        let heads = core::array::from_fn(|lane| {
            let end = ends[i + lane];
            if end - starts[lane] >= SWAR_MIN_FRAME_LEN {
                buf[starts[lane]..starts[lane] + SWAR_MIN_FRAME_LEN]
                    .try_into()
                    .expect("length checked to be SWAR_MIN_FRAME_LEN bytes")
            } else {
                SHORT_LANE
            }
        });
        let fast_syn = classify_swar_group(&heads, &mut counts, |lane| {
            let end = ends[i + lane];
            let frame = &buf[starts[lane]..end];
            let outcome = classify(frame);
            if matches!(outcome, Ok(SegmentKind::Syn)) {
                on_syn(frame);
            }
            outcome
        });
        let mut syns = fast_syn;
        while syns != 0 {
            let lane = (syns.trailing_zeros() / 8) as usize;
            on_syn(&buf[starts[lane]..ends[i + lane]]);
            syns &= syns - 1;
        }
        start = cursor;
        i += SWAR_LANES;
    }
    while i < ends.len() {
        let end = ends[i];
        let frame = &buf[start..end];
        let outcome = classify(frame);
        if matches!(outcome, Ok(SegmentKind::Syn)) {
            on_syn(frame);
        }
        counts.record_outcome(&outcome);
        start = end;
        i += 1;
    }
    counts
}

/// The scalar reference implementation of [`classify_batch`]: a plain fold
/// of [`classify`] over the batch. Kept public so the SWAR path can be
/// pinned against it in tests and compared in benches.
pub fn classify_batch_scalar(batch: &FrameBatch) -> ClassCounts {
    let mut counts = ClassCounts::new();
    for frame in batch {
        counts.record_outcome(&classify(frame));
    }
    counts
}

/// Frames decoded per SWAR group: one header byte per lane of a u64.
pub const SWAR_LANES: usize = 8;

/// Minimum frame length for the SWAR fast path: Ethernet header (14) +
/// minimal IPv4 header (20) + enough TCP header to reach the flags byte at
/// offset 13 (14 bytes). A frame this long with `ver_ihl == 0x45` can never
/// hit [`classify`]'s truncation errors, which is what lets the SWAR path
/// skip per-frame bounds checks.
pub const SWAR_MIN_FRAME_LEN: usize = ethernet::HEADER_LEN + crate::ipv4::MIN_HEADER_LEN + 14;

/// `0x01` repeated in every lane.
const LANE_LO: u64 = 0x0101_0101_0101_0101;
/// `0x80` repeated in every lane.
const LANE_HI: u64 = 0x8080_8080_8080_8080;

/// Broadcasts a byte into every lane.
#[inline(always)]
fn lanes(byte: u8) -> u64 {
    LANE_LO.wrapping_mul(u64::from(byte))
}

/// Per-lane equality: returns `0x01` in each lane where the lane of `x`
/// equals `byte`, `0x00` elsewhere.
///
/// Uses the carry-safe zero-byte test: after XORing with the broadcast
/// pattern, a lane is zero iff its low 7 bits don't overflow when `0x7f` is
/// added *and* its top bit is clear. Unlike the classic
/// `(v - 0x01…) & !v & 0x80…` trick, this form cannot leak borrows across
/// lanes, so the mask is exact per lane, not merely "some lane matched".
#[inline(always)]
fn lanes_eq(x: u64, byte: u8) -> u64 {
    let y = x ^ lanes(byte);
    let low7_nonzero = (y & !LANE_HI).wrapping_add(!LANE_HI);
    (!(low7_nonzero | y) & LANE_HI) >> 7
}

/// Per-lane logical NOT over `0x00`/`0x01` lane masks.
#[inline(always)]
fn lanes_not(mask: u64) -> u64 {
    mask ^ LANE_LO
}

/// Gathers byte `offset` of each head into one u64, lane `j` = frame `j`.
#[inline(always)]
fn gather(heads: &[&[u8; SWAR_MIN_FRAME_LEN]; SWAR_LANES], offset: usize) -> u64 {
    let mut acc = 0u64;
    for (lane, head) in heads.iter().enumerate() {
        acc |= u64::from(head[offset]) << (lane * 8);
    }
    acc
}

/// Classifies one group of [`SWAR_LANES`] frames whose first
/// [`SWAR_MIN_FRAME_LEN`] bytes are `heads`, folding the outcome into
/// `counts`. Lanes that are not plain `EtherType=IPv4, ver_ihl=0x45` frames
/// are delegated to `fallback(lane)`, which classifies the full frame
/// scalar-wise (handling IPv4 options, foreign EtherTypes, bad versions).
/// Returns the lane mask (`0x01` per matching lane) of fast-path pure SYNs
/// so the caller can feed them to a per-SYN sink; slow-lane SYNs are the
/// fallback's business.
#[inline]
fn classify_swar_group(
    heads: &[&[u8; SWAR_MIN_FRAME_LEN]; SWAR_LANES],
    counts: &mut ClassCounts,
    mut fallback: impl FnMut(usize) -> Result<SegmentKind, crate::error::NetError>,
) -> u64 {
    // Header bytes, one frame per lane. Offsets into the raw frame:
    // 12..14 EtherType, 14 version/IHL, 20..22 fragment word, 23 protocol,
    // 47 TCP flags (valid only when IHL == 20, i.e. ver_ihl == 0x45).
    let et_hi = gather(heads, 12);
    let et_lo = gather(heads, 13);
    let ver_ihl = gather(heads, 14);
    let frag_hi = gather(heads, 20);
    let frag_lo = gather(heads, 21);
    let proto = gather(heads, 23);
    let flags = gather(heads, 47);

    // Fast lanes: IPv4 EtherType with a plain 20-byte header. Everything
    // else (IPv6, options, version != 4) takes the scalar fallback, which
    // also produces the right malformed/NonTcp outcome.
    let ipv4 = lanes_eq(et_hi, 0x08) & lanes_eq(et_lo, 0x00);
    let plain = lanes_eq(ver_ihl, 0x45);
    let fast = ipv4 & plain;

    // Among fast lanes: a classifiable TCP segment needs protocol 6 and a
    // zero fragment offset (low 13 bits of the fragment word).
    let tcp = lanes_eq(proto, crate::ipv4::PROTO_TCP);
    let frag_zero = lanes_eq((frag_hi & lanes(0x1f)) | frag_lo, 0x00);
    let seg = fast & tcp & frag_zero;
    let non_tcp = fast & lanes_not(tcp & frag_zero);

    // Decode the flag bits across all segment lanes at once. Bit positions
    // follow TcpFlags: FIN=0x01 SYN=0x02 RST=0x04 ACK=0x10.
    let fin = flags & lanes(0x01);
    let syn = (flags >> 1) & lanes(0x01);
    let rst = (flags >> 2) & lanes(0x01);
    let ack = (flags >> 4) & lanes(0x01);

    // kind_of() precedence as disjoint lane masks: RST dominates, then
    // SYN+ACK, then pure SYN, then FIN, then ACK, else OtherTcp.
    let not_rst = lanes_not(rst);
    let syn_ack = syn & ack;
    let rst_k = rst & seg;
    let synack_k = syn_ack & not_rst & seg;
    let syn_k = syn & lanes_not(ack) & lanes_not(fin) & not_rst & seg;
    let fin_k = fin & lanes_not(syn_ack) & not_rst & seg;
    let ack_k = ack & lanes_not(syn_ack) & lanes_not(fin) & not_rst & seg;
    let other_k = seg & lanes_not(rst_k | synack_k | syn_k | fin_k | ack_k);

    counts.add(SegmentKind::Rst, u64::from(rst_k.count_ones()));
    counts.add(SegmentKind::SynAck, u64::from(synack_k.count_ones()));
    counts.add(SegmentKind::Syn, u64::from(syn_k.count_ones()));
    counts.add(SegmentKind::Fin, u64::from(fin_k.count_ones()));
    counts.add(SegmentKind::Ack, u64::from(ack_k.count_ones()));
    counts.add(SegmentKind::OtherTcp, u64::from(other_k.count_ones()));
    counts.add(SegmentKind::NonTcp, u64::from(non_tcp.count_ones()));

    let mut slow = lanes_not(fast);
    while slow != 0 {
        let lane = (slow.trailing_zeros() / 8) as usize;
        counts.record_outcome(&fallback(lane));
        slow &= slow - 1;
    }
    syn_k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;
    use crate::tcp::TcpFlags;
    use std::net::SocketAddrV4;

    fn addr(s: &str) -> SocketAddrV4 {
        s.parse().unwrap()
    }

    fn frame(flags: TcpFlags) -> Vec<u8> {
        PacketBuilder::tcp(addr("10.0.0.1:1025"), addr("192.0.2.80:80"), flags)
            .build()
            .unwrap()
    }

    #[test]
    fn batch_stores_and_returns_frames_verbatim() {
        let frames = [frame(TcpFlags::SYN), frame(TcpFlags::ACK), vec![7u8; 3]];
        let batch: FrameBatch = frames.iter().collect();
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        for (i, expected) in frames.iter().enumerate() {
            assert_eq!(batch.get(i).unwrap(), expected.as_slice());
        }
        assert!(batch.get(3).is_none());
        let collected: Vec<_> = batch.iter().map(<[u8]>::to_vec).collect();
        assert_eq!(collected, frames);
    }

    #[test]
    fn empty_and_zero_length_frames() {
        let mut batch = FrameBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.iter().count(), 0);
        batch.push(&[]);
        batch.push(&[1]);
        batch.push(&[]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(0).unwrap(), &[] as &[u8]);
        assert_eq!(batch.get(1).unwrap(), &[1]);
        assert_eq!(batch.get(2).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut batch = FrameBatch::with_capacity(4, 1024);
        for _ in 0..4 {
            batch.push(&[0u8; 64]);
        }
        let bytes_cap_before = batch.buffer.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert!(batch.buffer.is_empty());
        assert_eq!(batch.buffer.capacity(), bytes_cap_before);
    }

    #[test]
    fn classify_batch_matches_per_frame_classify() {
        let mut batch = FrameBatch::new();
        let frames = [
            frame(TcpFlags::SYN),
            frame(TcpFlags::SYN | TcpFlags::ACK),
            frame(TcpFlags::ACK),
            frame(TcpFlags::RST),
            vec![0u8; 5],  // truncated -> malformed
            vec![0u8; 64], // zero ethertype -> NonTcp
        ];
        for f in &frames {
            batch.push(f);
        }
        let counts = classify_batch(&batch);
        let mut expected = ClassCounts::new();
        for f in &frames {
            expected.record_outcome(&crate::classify::classify(f));
        }
        assert_eq!(counts, expected);
        assert_eq!(counts.syn(), 1);
        assert_eq!(counts.synack(), 1);
        assert_eq!(counts.malformed(), 1);
        assert_eq!(counts.get(SegmentKind::NonTcp), 1);
        assert_eq!(counts.total(), frames.len() as u64);
    }

    #[test]
    fn sink_sees_every_syn_in_batch_order() {
        // Mix fast-lane SYNs, slow-lane SYNs (short frames can't be, but a
        // non-0x45 IHL can), non-SYNs and garbage, across more than one
        // SWAR group so both the grouped and the tail paths run.
        let syn = frame(TcpFlags::SYN);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for round in 0..3 {
            frames.push(syn.clone());
            frames.push(frame(TcpFlags::ACK));
            frames.push(frame(TcpFlags::SYN | TcpFlags::ACK));
            frames.push(vec![0u8; 5]);
            let mut tagged = syn.clone();
            tagged[5] = round; // distinguishable copies
            frames.push(tagged);
        }
        let batch: FrameBatch = frames.iter().collect();
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let counts = classify_batch_sink(&batch, |f| seen.push(f.to_vec()));
        let expected: Vec<Vec<u8>> = frames
            .iter()
            .filter(|f| matches!(crate::classify::classify(f), Ok(SegmentKind::Syn)))
            .cloned()
            .collect();
        assert_eq!(seen.len() as u64, counts.syn());
        assert_eq!(seen, expected, "sink order follows batch order");
        assert_eq!(counts, classify_batch(&batch));
    }

    #[test]
    fn merge_adds_tallies() {
        let mut a = ClassCounts::new();
        a.record(SegmentKind::Syn);
        a.record_malformed();
        let mut b = ClassCounts::new();
        b.record(SegmentKind::Syn);
        b.record(SegmentKind::Fin);
        a.merge(&b);
        assert_eq!(a.syn(), 2);
        assert_eq!(a.get(SegmentKind::Fin), 1);
        assert_eq!(a.malformed(), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn iter_covers_every_kind_in_order() {
        let counts = classify_batch(&[frame(TcpFlags::SYN)].iter().collect());
        let kinds: Vec<_> = counts.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, SegmentKind::ALL);
        assert_eq!(counts.iter().map(|(_, n)| n).sum::<u64>(), 1);
    }

    #[test]
    fn segment_kind_index_roundtrips() {
        for (i, kind) in SegmentKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }
}
