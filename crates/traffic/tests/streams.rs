//! Pinned generator streams: FNV-1a digests of every site's period counts
//! and of two full traces, so a change to any random draw's order or
//! arithmetic shows here.

use syndog_sim::{SimDuration, SimRng};
use syndog_traffic::sites::SiteProfile;
use syndog_traffic::Direction;

/// 64-bit FNV-1a over `words`, each hashed as its little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn period_count_streams_are_pinned() {
    // One row per site of `SiteProfile::all()`, one column per seed.
    const PINNED: [[u64; 3]; 4] = [
        [0x9e3c68da7f89bff4, 0x3ea4a80680bb8840, 0x359dae80b381079c],
        [0xa3ad34849cf4666a, 0x545ffd00fea8e464, 0x58243185ff416c62],
        [0x9e901d8f142818bf, 0x30975d7460a16b24, 0x7bc45a69c8b26888],
        [0x47a67f4f6e4c5edb, 0x1ee9b2b5c605e4d9, 0x52b159cd0d44ff23],
    ];
    for (site, want) in SiteProfile::all().iter().zip(PINNED) {
        let got = [1, 7, 20_020_701].map(|seed| {
            let counts = site.generate_period_counts(&mut SimRng::seed_from_u64(seed));
            fnv1a(counts.iter().flat_map(|c| [c.syn, c.synack]))
        });
        assert_eq!(got, want, "{}: {got:#018x?}", site.name());
    }
}

#[test]
fn trace_streams_are_pinned() {
    for (site, want) in [
        (SiteProfile::lbl(), 0x3ae14537f20c5f56),
        (SiteProfile::auckland(), 0x128627b262b299c4),
    ] {
        let site = site.with_duration(SimDuration::from_secs(600));
        let trace = site.generate_trace(&mut SimRng::seed_from_u64(20_020_701));
        let got = fnv1a(trace.records().iter().flat_map(|r| {
            let direction = u64::from(r.direction == Direction::Outbound);
            [r.time.as_micros(), direction, r.kind as u64, r.fp]
        }));
        assert_eq!(got, want, "{} trace: {got:#018x}", site.name());
    }
}
