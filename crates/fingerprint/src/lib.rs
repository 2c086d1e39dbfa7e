//! p0f-style passive SYN fingerprinting.
//!
//! SYN-dog localizes flooding sources from SYN/SYN-ACK asymmetry, but its
//! mitigation keys token buckets on a suspect MAC or a spoofed /24 — a
//! flood that rotates spoofed prefixes (and source MACs) degrades those
//! keys to pure collateral. This crate closes the gap with the observation
//! that attack tools craft their SYNs from one template: TTL, window,
//! option layout and header quirks are *constant* per tool, while a stub's
//! legitimate clients show the site's operating-system mix. The design
//! follows huginn-proxy's XDP `SynRawData` + quirk-bitmask probe and p0f's
//! signature scheme.
//!
//! The crate provides three pieces:
//!
//! - [`FingerprintKey`] — the compact, exactly-reversible 64-bit packing of
//!   a SYN's header shape (TTL class, window, option layout, MSS, quirks),
//! - [`syn_key`] — the key of a SYN frame that
//!   [`PacketView`](syndog_net::PacketView) has already parsed, run on
//!   each SYN as a capture is read, and [`extract_syn`], the same key
//!   from raw frame bytes,
//! - [`FingerprintTable`] — a per-stub frequency table with the
//!   entropy/dominance statistics the throttle keying and the flash-crowd
//!   exoneration rule consume.

mod key;
mod table;

pub use key::{
    extract_syn, layout_codes, layout_from_codes, syn_key, FingerprintKey, OPT_MSS, OPT_OTHER,
    OPT_SACKOK, OPT_TS, OPT_WSCALE, QUIRK_ACK_NONZERO, QUIRK_DF, QUIRK_ECN, QUIRK_MASK,
    QUIRK_NONZERO_ID, QUIRK_NONZERO_URG, QUIRK_PUSH, QUIRK_SEQ_ZERO, QUIRK_URG, QUIRK_ZERO_ID,
};
pub use table::FingerprintTable;

/// Canonical operating-system fingerprints for synthetic site workloads.
///
/// The values follow well-known p0f signatures: each entry is one "shape" a
/// real client population shows. Sites draw from these with per-host
/// weights so a stub's legitimate SYN mix has high fingerprint entropy —
/// exactly what separates it from a tool's constant template.
pub mod os_mix {
    use super::{layout_from_codes, FingerprintKey};
    use super::{OPT_MSS, OPT_SACKOK, OPT_TS, OPT_WSCALE, QUIRK_DF, QUIRK_NONZERO_ID};

    /// Linux: TTL 64, 64240 window, `MSS,SACKOK,TS,WSCALE`, DF with zero IP
    /// ID.
    pub fn linux() -> FingerprintKey {
        FingerprintKey::new(
            64,
            64240,
            1460,
            layout_from_codes(&[OPT_MSS, OPT_SACKOK, OPT_TS, OPT_WSCALE]),
            QUIRK_DF,
        )
    }

    /// Windows: TTL 128, 64240 window, `MSS,WSCALE,SACKOK`, DF with a
    /// nonzero IP ID.
    pub fn windows() -> FingerprintKey {
        FingerprintKey::new(
            128,
            64240,
            1460,
            layout_from_codes(&[OPT_MSS, OPT_WSCALE, OPT_SACKOK]),
            QUIRK_DF | QUIRK_NONZERO_ID,
        )
    }

    /// macOS / iOS: TTL 64, 65535 window, `MSS,WSCALE,TS,SACKOK`, DF.
    pub fn apple() -> FingerprintKey {
        FingerprintKey::new(
            64,
            65535,
            1460,
            layout_from_codes(&[OPT_MSS, OPT_WSCALE, OPT_TS, OPT_SACKOK]),
            QUIRK_DF,
        )
    }

    /// Android (Linux family, mobile MTU): TTL 64, 65535 window,
    /// `MSS,SACKOK,TS,WSCALE`, DF.
    pub fn android() -> FingerprintKey {
        FingerprintKey::new(
            64,
            65535,
            1430,
            layout_from_codes(&[OPT_MSS, OPT_SACKOK, OPT_TS, OPT_WSCALE]),
            QUIRK_DF,
        )
    }

    /// Legacy / embedded stacks: TTL 255, 16384 window, bare `MSS`, no DF.
    pub fn embedded() -> FingerprintKey {
        FingerprintKey::new(255, 16384, 1460, layout_from_codes(&[OPT_MSS]), 0)
    }

    /// The weighted site mix, most common first. Weights sum to 100.
    pub fn weighted() -> [(FingerprintKey, u32); 5] {
        [
            (windows(), 41),
            (linux(), 27),
            (apple(), 17),
            (android(), 11),
            (embedded(), 4),
        ]
    }

    /// Deterministically assigns one mix entry to a host: host `index` of
    /// site `site_id` always fingerprints the same, across runs and
    /// processes. A splitmix-style scramble spreads neighbouring indices
    /// over the weight table.
    pub fn for_host(site_id: u16, index: u32) -> FingerprintKey {
        let mut z =
            (u64::from(site_id) << 32 | u64::from(index)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let mix = weighted();
        let total: u32 = mix.iter().map(|(_, w)| w).sum();
        let mut draw = (z % u64::from(total)) as u32;
        for (key, weight) in mix {
            if draw < weight {
                return key;
            }
            draw -= weight;
        }
        unreachable!("weights cover the draw range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_mix_keys_are_distinct() {
        let mix = os_mix::weighted();
        for (i, (a, _)) in mix.iter().enumerate() {
            for (b, _) in &mix[i + 1..] {
                assert_ne!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn host_assignment_is_deterministic_and_mixed() {
        let a = os_mix::for_host(3, 17);
        assert_eq!(a, os_mix::for_host(3, 17));
        // Over a population, every mix entry appears.
        let mut seen = std::collections::BTreeSet::new();
        for host in 0..500 {
            seen.insert(os_mix::for_host(1, host).to_bits());
        }
        assert_eq!(seen.len(), os_mix::weighted().len());
    }
}
