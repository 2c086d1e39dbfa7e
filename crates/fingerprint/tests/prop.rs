//! Property tests: the key packing is total and exact, and a table
//! rebuilt from its entries equals the original.

use proptest::prelude::*;

use syndog_fingerprint::{FingerprintKey, FingerprintTable};

proptest! {
    /// The 64-bit packing is total: every `u64` decodes to a key that
    /// re-encodes to the identical bits.
    #[test]
    fn packed_bits_roundtrip_exactly(bits in any::<u64>()) {
        prop_assert_eq!(FingerprintKey::from_bits(bits).to_bits(), bits);
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
