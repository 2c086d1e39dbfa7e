//! The compact fingerprint key and the SYN header extractor.

use std::fmt;

use syndog_net::{PacketView, SegmentKind};

/// Option-layout code: MSS (TCP option kind 2).
pub const OPT_MSS: u8 = 1;
/// Option-layout code: window scale (kind 3).
pub const OPT_WSCALE: u8 = 2;
/// Option-layout code: SACK permitted (kind 4).
pub const OPT_SACKOK: u8 = 3;
/// Option-layout code: timestamps (kind 8).
pub const OPT_TS: u8 = 4;
/// Option-layout code: any other option kind.
pub const OPT_OTHER: u8 = 5;

/// Quirk: the IPv4 don't-fragment flag is set.
pub const QUIRK_DF: u16 = 1 << 0;
/// Quirk: DF is set *and* the IP identification field is nonzero (a stack
/// that sets DF normally zeroes the ID).
pub const QUIRK_NONZERO_ID: u16 = 1 << 1;
/// Quirk: DF is clear *and* the IP identification field is zero.
pub const QUIRK_ZERO_ID: u16 = 1 << 2;
/// Quirk: an ECN flag bit (ECE or CWR) is set on the SYN.
pub const QUIRK_ECN: u16 = 1 << 3;
/// Quirk: the sequence number is zero.
pub const QUIRK_SEQ_ZERO: u16 = 1 << 4;
/// Quirk: the acknowledgment field is nonzero although ACK is clear (it
/// always is on a pure SYN).
pub const QUIRK_ACK_NONZERO: u16 = 1 << 5;
/// Quirk: the urgent pointer is nonzero although URG is clear.
pub const QUIRK_NONZERO_URG: u16 = 1 << 6;
/// Quirk: the URG flag is set on the SYN.
pub const QUIRK_URG: u16 = 1 << 7;
/// Quirk: the PSH flag is set on the SYN.
pub const QUIRK_PUSH: u16 = 1 << 8;

/// Every representable quirk bit: the packing reserves 14 bits.
pub const QUIRK_MASK: u16 = (1 << 14) - 1;

/// Initial-TTL class boundaries, indexed by the 2-bit class field. A
/// received TTL `t` belongs to the smallest class bound `>= t` — the usual
/// p0f assumption that a packet has crossed fewer than 32 hops.
const TTL_BOUNDS: [u8; 4] = [32, 64, 128, 255];

/// Packs the non-NOP option kinds of a SYN, in wire order, into 4-bit
/// slots (first option in the low nibble, up to four recorded).
pub fn layout_from_codes(codes: &[u8]) -> u16 {
    let mut layout = 0u16;
    for (slot, &code) in codes.iter().take(4).enumerate() {
        layout |= u16::from(code & 0x0f) << (4 * slot);
    }
    layout
}

/// Unpacks a layout word back into its four code slots (0 = empty slot).
pub fn layout_codes(layout: u16) -> [u8; 4] {
    core::array::from_fn(|slot| ((layout >> (4 * slot)) & 0x0f) as u8)
}

/// A SYN header fingerprint, p0f-style, packed exactly into 64 bits:
///
/// ```text
/// bits  0..16  receive window (raw)
/// bits 16..32  MSS option value (0 when absent)
/// bits 32..48  option layout: 4 slots x 4-bit codes, wire order
/// bits 48..50  initial-TTL class (<=32, <=64, <=128, <=255)
/// bits 50..64  quirk bitmask (QUIRK_*)
/// ```
///
/// The packing is total and exact: [`FingerprintKey::from_bits`] accepts
/// any `u64` and [`FingerprintKey::to_bits`] reproduces it bit for bit, so
/// keys can ride wire formats and checkpoint payloads as plain integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FingerprintKey {
    /// Raw receive window.
    pub window: u16,
    /// MSS option value, 0 when the option is absent.
    pub mss: u16,
    /// Option layout word (see `layout_from_codes`).
    pub layout: u16,
    /// Initial-TTL class index into the `<=32/<=64/<=128/<=255` ladder.
    pub ttl_class: u8,
    /// Quirk bitmask, 14 bits.
    pub quirks: u16,
}

impl FingerprintKey {
    /// Builds a key from a raw TTL (classified into the initial-TTL
    /// ladder), window, MSS, layout word and quirk mask.
    pub fn new(ttl: u8, window: u16, mss: u16, layout: u16, quirks: u16) -> Self {
        FingerprintKey {
            window,
            mss,
            layout,
            ttl_class: ttl_class_of(ttl),
            quirks: quirks & QUIRK_MASK,
        }
    }

    /// The packed 64-bit form.
    pub fn to_bits(self) -> u64 {
        u64::from(self.window)
            | u64::from(self.mss) << 16
            | u64::from(self.layout) << 32
            | u64::from(self.ttl_class & 0x03) << 48
            | u64::from(self.quirks & QUIRK_MASK) << 50
    }

    /// Unpacks a key from its 64-bit form. Total: every `u64` is a valid
    /// key and round-trips exactly through [`FingerprintKey::to_bits`].
    pub fn from_bits(bits: u64) -> Self {
        FingerprintKey {
            window: bits as u16,
            mss: (bits >> 16) as u16,
            layout: (bits >> 32) as u16,
            ttl_class: ((bits >> 48) & 0x03) as u8,
            quirks: ((bits >> 50) as u16) & QUIRK_MASK,
        }
    }

    /// The representative initial TTL of this key's class (what a frame
    /// synthesizer should write so re-extraction lands in the same class).
    pub fn ttl(self) -> u8 {
        TTL_BOUNDS[usize::from(self.ttl_class & 0x03)]
    }

    /// The option codes, wire order, empty slots stripped.
    pub fn option_codes(self) -> impl Iterator<Item = u8> {
        layout_codes(self.layout).into_iter().filter(|&c| c != 0)
    }

    /// Whether the given quirk bit(s) are all set.
    pub fn has_quirk(self, quirk: u16) -> bool {
        self.quirks & quirk == quirk
    }

    /// Configures a [`PacketBuilder`](syndog_net::PacketBuilder) so
    /// the built SYN frame extracts back to this key: TTL, window, option
    /// list and every quirk-implied header field are set to match.
    ///
    /// Inverse of [`extract_syn`] for *consistent* keys (the ones
    /// [`extract_syn`] itself can produce — e.g. not both `QUIRK_ZERO_ID`
    /// and `QUIRK_DF`). The caller's sequence number is preserved unless
    /// the key carries `QUIRK_SEQ_ZERO`; pass a nonzero one for keys
    /// without that quirk.
    pub fn apply(self, builder: syndog_net::PacketBuilder) -> syndog_net::PacketBuilder {
        use syndog_net::TcpFlags;
        use syndog_net::{OptionArea, TcpOption};

        // Encoded in place: a fingerprinted SYN allocates nothing.
        let mut options = OptionArea::default();
        for code in self.option_codes() {
            match code {
                OPT_MSS => options.push(&TcpOption::Mss(self.mss)),
                OPT_WSCALE => options.push(&TcpOption::WindowScale(7)),
                OPT_SACKOK => options.push(&TcpOption::SackPermitted),
                OPT_TS => options.push(&TcpOption::Timestamps(1, 0)),
                _ => options.push_raw(253, &[0, 0]),
            }
        }
        let df = self.has_quirk(QUIRK_DF);
        let id_nonzero = if df {
            self.has_quirk(QUIRK_NONZERO_ID)
        } else {
            !self.has_quirk(QUIRK_ZERO_ID)
        };
        let id = if id_nonzero { 0x4d2 } else { 0 };
        let mut flags = 0x02u8; // SYN
        if self.has_quirk(QUIRK_ECN) {
            flags |= 0x40;
        }
        if self.has_quirk(QUIRK_URG) {
            flags |= 0x20;
        }
        if self.has_quirk(QUIRK_PUSH) {
            flags |= 0x08;
        }
        let mut builder = builder
            .ttl(self.ttl())
            .window(self.window)
            .tcp_options(options)
            .dont_fragment(df)
            .identification(id)
            .flags(TcpFlags::from_raw_bits(flags))
            .urgent(
                if self.has_quirk(QUIRK_URG) || self.has_quirk(QUIRK_NONZERO_URG) {
                    1
                } else {
                    0
                },
            )
            .ack(if self.has_quirk(QUIRK_ACK_NONZERO) {
                1
            } else {
                0
            });
        if self.has_quirk(QUIRK_SEQ_ZERO) {
            builder = builder.seq(0);
        }
        builder
    }
}

impl fmt::Display for FingerprintKey {
    /// A compact signature string, p0f-flavoured:
    /// `t64:w64240:m1460:oMSTW:q001` (option letters M/W/S/T/?, in wire
    /// order; `o-` when the SYN carried no options).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}:w{}:m{}:o", self.ttl(), self.window, self.mss)?;
        let mut any = false;
        for code in self.option_codes() {
            any = true;
            let letter = match code {
                OPT_MSS => 'M',
                OPT_WSCALE => 'W',
                OPT_SACKOK => 'S',
                OPT_TS => 'T',
                _ => '?',
            };
            write!(f, "{letter}")?;
        }
        if !any {
            write!(f, "-")?;
        }
        write!(f, ":q{:03x}", self.quirks)
    }
}

/// Classifies a received TTL into the initial-TTL ladder.
fn ttl_class_of(ttl: u8) -> u8 {
    match ttl {
        0..=32 => 0,
        33..=64 => 1,
        65..=128 => 2,
        _ => 3,
    }
}

/// Extracts the fingerprint of a *pure SYN* from raw Ethernet frame bytes.
///
/// Returns `None` for anything that is not a well-formed IPv4 TCP
/// connection request: foreign EtherType, non-v4 version, bad IHL, later
/// fragment, non-TCP protocol, a flags byte with ACK/RST/FIN set, or a
/// frame too short to hold the full TCP header its data offset claims.
/// The parse reads only the bytes it needs — no allocation, no checksum —
/// and, unlike [`PacketView::parse`], tolerates a lying `total_len` and a
/// malformed option area. A frame that has already been parsed takes
/// [`syn_key`] instead.
pub fn extract_syn(frame: &[u8]) -> Option<FingerprintKey> {
    let ip = frame.get(14..)?;
    if frame[12] != 0x08 || frame[13] != 0x00 {
        return None;
    }
    if ip.len() < 20 || ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = usize::from(ip[0] & 0x0f) * 4;
    if !(20..=60).contains(&ihl) || ip.len() < ihl + 20 {
        return None;
    }
    if ip[9] != 6 || u16::from_be_bytes([ip[6], ip[7]]) & 0x1fff != 0 {
        return None;
    }
    let (ip_header, tcp) = ip.split_at(ihl);
    // Pure SYN: SYN set, FIN/RST/ACK all clear (ECN bits allowed).
    if tcp[13] & 0x02 == 0 || tcp[13] & (0x01 | 0x04 | 0x10) != 0 {
        return None;
    }
    let data_offset = usize::from(tcp[12] >> 4) * 4;
    if !(20..=60).contains(&data_offset) || tcp.len() < data_offset {
        return None;
    }
    Some(key_of(ip_header, &tcp[..data_offset]))
}

/// The fingerprint of a parsed frame, when it is a *pure SYN* (its
/// [`PacketView::kind`] is [`SegmentKind::Syn`]). Equal to [`extract_syn`]
/// over the same bytes on every frame [`PacketView::parse`] accepts.
#[inline]
pub fn syn_key(view: &PacketView<'_>) -> Option<FingerprintKey> {
    match view.tcp_header() {
        Some(tcp) if view.kind() == SegmentKind::Syn => Some(key_of(view.ip_header(), tcp)),
        _ => None,
    }
}

/// Builds the key of a pure SYN from its IPv4 header (at least 20 bytes)
/// and its TCP header (at least 20, options included).
#[inline]
fn key_of(ip: &[u8], tcp: &[u8]) -> FingerprintKey {
    let mut quirks = 0u16;
    let df = u16::from_be_bytes([ip[6], ip[7]]) & 0x4000 != 0;
    let id = u16::from_be_bytes([ip[4], ip[5]]);
    if df {
        quirks |= QUIRK_DF;
        if id != 0 {
            quirks |= QUIRK_NONZERO_ID;
        }
    } else if id == 0 {
        quirks |= QUIRK_ZERO_ID;
    }
    let tcp_flags = tcp[13];
    if tcp_flags & 0xc0 != 0 {
        quirks |= QUIRK_ECN;
    }
    let seq = u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]);
    if seq == 0 {
        quirks |= QUIRK_SEQ_ZERO;
    }
    let ack = u32::from_be_bytes([tcp[8], tcp[9], tcp[10], tcp[11]]);
    if ack != 0 {
        quirks |= QUIRK_ACK_NONZERO;
    }
    let urgent = u16::from_be_bytes([tcp[18], tcp[19]]);
    if tcp_flags & 0x20 != 0 {
        quirks |= QUIRK_URG;
    } else if urgent != 0 {
        quirks |= QUIRK_NONZERO_URG;
    }
    if tcp_flags & 0x08 != 0 {
        quirks |= QUIRK_PUSH;
    }

    let (layout, mss) = parse_options(&tcp[20..]);
    FingerprintKey {
        window: u16::from_be_bytes([tcp[14], tcp[15]]),
        mss,
        layout,
        ttl_class: ttl_class_of(ip[8]),
        quirks,
    }
}

/// Walks the TCP option area, recording the first four non-NOP option
/// kinds in wire order plus the MSS value. A malformed length terminates
/// the walk, keeping whatever was parsed so far — the extractor must
/// never fail on wire garbage.
fn parse_options(mut bytes: &[u8]) -> (u16, u16) {
    let mut codes = [0u8; 4];
    let mut filled = 0usize;
    let mut mss = 0u16;
    while let Some((&kind, rest)) = bytes.split_first() {
        match kind {
            0 => break,
            1 => bytes = rest,
            _ => {
                let Some(&len) = rest.first() else { break };
                let len = usize::from(len);
                if len < 2 || len > bytes.len() {
                    break;
                }
                let code = match kind {
                    2 => {
                        if len == 4 {
                            mss = u16::from_be_bytes([bytes[2], bytes[3]]);
                        }
                        OPT_MSS
                    }
                    3 => OPT_WSCALE,
                    4 => OPT_SACKOK,
                    8 => OPT_TS,
                    _ => OPT_OTHER,
                };
                if filled < codes.len() {
                    codes[filled] = code;
                    filled += 1;
                }
                bytes = &bytes[len..];
            }
        }
    }
    (layout_from_codes(&codes[..filled]), mss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddrV4;
    use syndog_net::PacketBuilder;
    use syndog_net::TcpFlags;
    use syndog_net::TcpOption;

    fn addr(s: &str) -> SocketAddrV4 {
        s.parse().unwrap()
    }

    fn syn_frame() -> Vec<u8> {
        PacketBuilder::tcp(addr("10.1.0.5:1025"), addr("192.0.2.80:80"), TcpFlags::SYN)
            .build()
            .unwrap()
    }

    #[test]
    fn packing_is_exact_for_representative_keys() {
        let key = FingerprintKey::new(
            64,
            64240,
            1460,
            layout_from_codes(&[OPT_MSS, OPT_SACKOK, OPT_TS, OPT_WSCALE]),
            QUIRK_DF | QUIRK_SEQ_ZERO,
        );
        assert_eq!(FingerprintKey::from_bits(key.to_bits()), key);
        assert_eq!(key.ttl(), 64);
    }

    #[test]
    fn default_built_syn_extracts_expected_shape() {
        // PacketBuilder defaults: TTL 64, window 65535, MSS 1460, DF set,
        // id 0, seq 0 — so DF + SEQ_ZERO, layout [MSS].
        let key = extract_syn(&syn_frame()).expect("pure SYN extracts");
        assert_eq!(key.ttl(), 64);
        assert_eq!(key.window, 65535);
        assert_eq!(key.mss, 1460);
        assert_eq!(key.option_codes().collect::<Vec<_>>(), vec![OPT_MSS]);
        assert_eq!(key.quirks, QUIRK_DF | QUIRK_SEQ_ZERO);
    }

    #[test]
    fn non_syn_and_malformed_frames_yield_none() {
        let synack = PacketBuilder::tcp(
            addr("192.0.2.80:80"),
            addr("10.1.0.5:1025"),
            TcpFlags::SYN | TcpFlags::ACK,
        )
        .build()
        .unwrap();
        assert_eq!(extract_syn(&synack), None, "SYN/ACK is not fingerprinted");
        let frame = syn_frame();
        assert_eq!(extract_syn(&frame[..20]), None, "truncated");
        let mut foreign = frame.clone();
        foreign[12] = 0x86;
        foreign[13] = 0xdd;
        assert_eq!(extract_syn(&foreign), None, "non-IPv4 EtherType");
        let fragment = PacketBuilder::tcp(addr("1.1.1.1:1"), addr("2.2.2.2:2"), TcpFlags::SYN)
            .fragment_offset(3)
            .payload(vec![0u8; 32])
            .build()
            .unwrap();
        assert_eq!(extract_syn(&fragment), None, "later fragment");
    }

    #[test]
    fn option_layout_follows_wire_order() {
        let frame = PacketBuilder::tcp(addr("10.1.0.5:1025"), addr("192.0.2.80:80"), TcpFlags::SYN)
            .tcp_options([
                TcpOption::Mss(1400),
                TcpOption::Nop,
                TcpOption::WindowScale(7),
                TcpOption::Nop,
                TcpOption::Nop,
                TcpOption::SackPermitted,
            ])
            .build()
            .unwrap();
        let key = extract_syn(&frame).unwrap();
        assert_eq!(
            key.option_codes().collect::<Vec<_>>(),
            vec![OPT_MSS, OPT_WSCALE, OPT_SACKOK],
            "NOPs skipped, order preserved"
        );
        assert_eq!(key.mss, 1400);
    }

    #[test]
    fn unknown_options_code_as_other() {
        let frame = PacketBuilder::tcp(addr("10.1.0.5:1025"), addr("192.0.2.80:80"), TcpFlags::SYN)
            .tcp_options([TcpOption::Unknown(253, vec![9, 9]), TcpOption::Mss(1460)])
            .build()
            .unwrap();
        let key = extract_syn(&frame).unwrap();
        assert_eq!(
            key.option_codes().collect::<Vec<_>>(),
            vec![OPT_OTHER, OPT_MSS]
        );
    }

    #[test]
    fn quirk_extraction_matrix() {
        let base = PacketBuilder::tcp(addr("10.1.0.5:1025"), addr("192.0.2.80:80"), TcpFlags::SYN);
        let frame = base
            .clone()
            .seq(7)
            .ack(1)
            .identification(9)
            .build()
            .unwrap();
        let key = extract_syn(&frame).unwrap();
        assert!(key.has_quirk(QUIRK_DF | QUIRK_NONZERO_ID | QUIRK_ACK_NONZERO));
        assert!(!key.has_quirk(QUIRK_SEQ_ZERO));

        let frame = base.clone().seq(7).dont_fragment(false).build().unwrap();
        let key = extract_syn(&frame).unwrap();
        assert_eq!(key.quirks, QUIRK_ZERO_ID);

        let frame = base
            .clone()
            .seq(7)
            .flags(TcpFlags::from_raw_bits(0x02 | 0x08 | 0x40))
            .build()
            .unwrap();
        let key = extract_syn(&frame).unwrap();
        assert!(key.has_quirk(QUIRK_PUSH | QUIRK_ECN));

        let frame = base.clone().seq(7).urgent(5).build().unwrap();
        assert!(extract_syn(&frame).unwrap().has_quirk(QUIRK_NONZERO_URG));

        let frame = base
            .seq(7)
            .urgent(5)
            .flags(TcpFlags::SYN | TcpFlags::URG)
            .build()
            .unwrap();
        let key = extract_syn(&frame).unwrap();
        assert!(key.has_quirk(QUIRK_URG));
        assert!(!key.has_quirk(QUIRK_NONZERO_URG));
    }

    #[test]
    fn ttl_ladder() {
        for (ttl, class, repr) in [
            (1u8, 0u8, 32u8),
            (32, 0, 32),
            (33, 1, 64),
            (64, 1, 64),
            (65, 2, 128),
            (128, 2, 128),
            (129, 3, 255),
            (255, 3, 255),
        ] {
            let key = FingerprintKey::new(ttl, 0, 0, 0, 0);
            assert_eq!(key.ttl_class, class, "ttl {ttl}");
            assert_eq!(key.ttl(), repr, "ttl {ttl}");
        }
    }

    #[test]
    fn display_is_compact_and_stable() {
        let key = FingerprintKey::new(
            64,
            64240,
            1460,
            layout_from_codes(&[OPT_MSS, OPT_SACKOK, OPT_TS, OPT_WSCALE]),
            QUIRK_DF,
        );
        assert_eq!(key.to_string(), "t64:w64240:m1460:oMSTW:q001");
        let bare = FingerprintKey::new(255, 512, 0, 0, QUIRK_SEQ_ZERO);
        assert_eq!(bare.to_string(), "t255:w512:m0:o-:q010");
    }

    use proptest::prelude::*;

    /// A consistent quirk mask: one [`extract_syn`] itself can produce (the ID
    /// quirks agree with DF, `NONZERO_URG` excludes `URG`).
    fn arb_quirks() -> impl Strategy<Value = u16> {
        (any::<bool>(), any::<bool>(), any::<u8>()).prop_map(|(df, id_nonzero, rest)| {
            let mut quirks = 0u16;
            if df {
                quirks |= QUIRK_DF;
                if id_nonzero {
                    quirks |= QUIRK_NONZERO_ID;
                }
            } else if !id_nonzero {
                quirks |= QUIRK_ZERO_ID;
            }
            if rest & 0x01 != 0 {
                quirks |= QUIRK_ECN;
            }
            if rest & 0x02 != 0 {
                quirks |= QUIRK_SEQ_ZERO;
            }
            if rest & 0x04 != 0 {
                quirks |= QUIRK_ACK_NONZERO;
            }
            if rest & 0x08 != 0 {
                quirks |= QUIRK_PUSH;
            }
            match rest & 0x30 {
                0x10 => quirks |= QUIRK_URG,
                0x20 => quirks |= QUIRK_NONZERO_URG,
                _ => {}
            }
            quirks
        })
    }

    /// An option layout: up to four codes, each a real option-code value.
    fn arb_layout() -> impl Strategy<Value = u16> {
        proptest::collection::vec(
            prop_oneof![
                Just(OPT_MSS),
                Just(OPT_WSCALE),
                Just(OPT_SACKOK),
                Just(OPT_TS),
                Just(OPT_OTHER),
            ],
            0usize..5,
        )
        .prop_map(|codes| layout_from_codes(&codes))
    }

    /// A consistent fingerprint key: the MSS field is populated exactly when
    /// the layout carries the MSS option (mirroring what extraction sees).
    fn arb_key() -> impl Strategy<Value = FingerprintKey> {
        (
            any::<u8>(),
            any::<u16>(),
            any::<u16>(),
            arb_layout(),
            arb_quirks(),
        )
            .prop_map(|(ttl, window, mss, layout, quirks)| {
                let has_mss = layout_codes(layout).contains(&OPT_MSS);
                FingerprintKey::new(
                    ttl.max(1),
                    window,
                    if has_mss { mss } else { 0 },
                    layout,
                    quirks,
                )
            })
    }

    proptest! {
        /// Constructor fields survive the packing unchanged (quirks masked to
        /// the 14 representable bits, TTL to its class).
        #[test]
        fn constructed_key_roundtrips_through_bits(key in arb_key()) {
            let back = FingerprintKey::from_bits(key.to_bits());
            prop_assert_eq!(back, key);
            prop_assert_eq!(back.window, key.window);
            prop_assert_eq!(back.mss, key.mss);
            prop_assert_eq!(back.layout, key.layout);
            prop_assert_eq!(back.ttl_class, key.ttl_class);
            prop_assert_eq!(back.quirks, key.quirks);
        }

        /// Layout words and code slots convert back and forth exactly.
        #[test]
        fn layout_words_roundtrip(layout in any::<u16>()) {
            prop_assert_eq!(layout_from_codes(&layout_codes(layout)), layout);
        }

        /// Synthesis → extraction is the identity on consistent keys: a frame
        /// built by [`FingerprintKey::apply`] extracts back to the same key.
        /// This is what guarantees attack tools and site OS mixes fingerprint
        /// as configured after a full encode/decode cycle.
        #[test]
        fn extraction_inverts_synthesis(key in arb_key(), seq in 1u32..) {
            let frame = key
                .apply(PacketBuilder::tcp(
                    "10.1.0.5:1025".parse().unwrap(),
                    "192.0.2.80:80".parse().unwrap(),
                    TcpFlags::SYN,
                ))
                .seq(if key.has_quirk(QUIRK_SEQ_ZERO) { 0 } else { seq })
                .build()
                .unwrap();
            prop_assert_eq!(extract_syn(&frame), Some(key));
        }
    }
}
