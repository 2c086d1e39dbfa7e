//! Property tests: the key packing is total and exact, and extraction
//! inverts synthesis for every consistent fingerprint.

use proptest::prelude::*;

use syndog_fingerprint::{
    extract_syn, layout_codes, layout_from_codes, FingerprintKey, FingerprintTable, OPT_MSS,
    OPT_OTHER, OPT_SACKOK, OPT_TS, OPT_WSCALE, QUIRK_ACK_NONZERO, QUIRK_DF, QUIRK_ECN,
    QUIRK_NONZERO_ID, QUIRK_NONZERO_URG, QUIRK_PUSH, QUIRK_SEQ_ZERO, QUIRK_URG, QUIRK_ZERO_ID,
};
use syndog_net::packet::PacketBuilder;
use syndog_net::TcpFlags;

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
    /// The 64-bit packing is total: every `u64` decodes to a key that
    /// re-encodes to the identical bits.
    #[test]
    fn packed_bits_roundtrip_exactly(bits in any::<u64>()) {
        prop_assert_eq!(FingerprintKey::from_bits(bits).to_bits(), bits);
    }

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

    /// Table round trip: rebuilding from `entries()` preserves counts,
    /// totals, dominance and entropy for arbitrary observation sequences.
    #[test]
    fn table_entries_roundtrip(observations in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut table = FingerprintTable::new();
        for bits in &observations {
            table.observe_bits(*bits);
        }
        let rebuilt = FingerprintTable::from_entries(table.entries());
        prop_assert_eq!(&rebuilt, &table);
        prop_assert_eq!(rebuilt.total(), observations.len() as u64);
        prop_assert_eq!(rebuilt.dominant(), table.dominant());
        prop_assert!((rebuilt.entropy_bits() - table.entropy_bits()).abs() < 1e-12);
    }
}
