//! Per-stub fingerprint frequency tables.

use std::collections::BTreeMap;

use crate::key::FingerprintKey;

/// A frequency table of SYN fingerprints observed at one stub.
///
/// Keys are the packed [`FingerprintKey`] bits so the table serializes
/// and iterates deterministically (`BTreeMap` order). The table
/// answers the two questions the mitigation layer asks: *is one shape
/// dominating* (attack-tool template → throttle on it) and *how diverse is
/// the mix* (high entropy → flash crowd, exonerate).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FingerprintTable {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl FingerprintTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `key`.
    pub fn observe(&mut self, key: FingerprintKey) {
        self.observe_bits(key.to_bits());
    }

    /// Records one observation of an already-packed key.
    pub fn observe_bits(&mut self, bits: u64) {
        *self.counts.entry(bits).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct fingerprints seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Shannon entropy of the fingerprint distribution, in bits. An empty
    /// table and a single-shape table both score 0; a site's natural OS
    /// mix lands around 1.5–2.5 bits.
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        -self
            .counts
            .values()
            .map(|&c| {
                let p = c as f64 / total;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// The most frequent fingerprint and its count, ties broken toward the
    /// numerically lowest key so the answer is deterministic.
    pub fn dominant(&self) -> Option<(FingerprintKey, u64)> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&bits, &count)| (FingerprintKey::from_bits(bits), count))
    }

    /// The fraction of all observations carried by `key` (0.0 when the
    /// table is empty).
    pub fn share(&self, key: FingerprintKey) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let count = self.counts.get(&key.to_bits()).copied().unwrap_or(0);
        count as f64 / self.total as f64
    }

    /// Count recorded for a specific key.
    pub fn count(&self, key: FingerprintKey) -> u64 {
        self.counts.get(&key.to_bits()).copied().unwrap_or(0)
    }

    /// Iterates `(packed key, count)` pairs in key order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&bits, &count)| (bits, count))
    }

    /// Rebuilds a table from `(packed key, count)` pairs (checkpoint
    /// restore). Duplicate keys accumulate.
    pub fn from_entries(entries: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut table = Self::new();
        for (bits, count) in entries {
            if count == 0 {
                continue;
            }
            *table.counts.entry(bits).or_insert(0) += count;
            table.total += count;
        }
        table
    }

    /// Drops all observations.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os_mix;

    #[test]
    fn entropy_tracks_diversity() {
        let mut constant = FingerprintTable::new();
        for _ in 0..100 {
            constant.observe(os_mix::linux());
        }
        assert_eq!(constant.entropy_bits(), 0.0);
        assert_eq!(constant.distinct(), 1);

        let mut mixed = FingerprintTable::new();
        for (key, weight) in os_mix::weighted() {
            for _ in 0..weight {
                mixed.observe(key);
            }
        }
        assert!(
            mixed.entropy_bits() > 1.5,
            "site mix entropy {} should exceed 1.5 bits",
            mixed.entropy_bits()
        );
        assert_eq!(FingerprintTable::new().entropy_bits(), 0.0);
    }

    #[test]
    fn dominant_share_and_tiebreak() {
        let mut table = FingerprintTable::new();
        for _ in 0..30 {
            table.observe(os_mix::windows());
        }
        for _ in 0..10 {
            table.observe(os_mix::linux());
        }
        let (dom, count) = table.dominant().unwrap();
        assert_eq!(dom, os_mix::windows());
        assert_eq!(count, 30);
        assert!((table.share(os_mix::windows()) - 0.75).abs() < 1e-9);
        assert_eq!(table.share(os_mix::embedded()), 0.0);

        // Tie: lowest packed key wins, deterministically.
        let mut tie = FingerprintTable::new();
        tie.observe_bits(7);
        tie.observe_bits(3);
        let (dom, _) = tie.dominant().unwrap();
        assert_eq!(dom.to_bits(), 3);
        assert_eq!(FingerprintTable::new().dominant(), None);
    }

    #[test]
    fn entries_round_trip() {
        let mut table = FingerprintTable::new();
        for _ in 0..5 {
            table.observe(os_mix::apple());
        }
        table.observe(os_mix::embedded());
        let rebuilt = FingerprintTable::from_entries(table.entries());
        assert_eq!(rebuilt, table);
        assert_eq!(rebuilt.total(), 6);

        // Zero-count entries are dropped on restore.
        let sparse = FingerprintTable::from_entries([(1u64, 0u64), (2, 2)]);
        assert_eq!(sparse.distinct(), 1);
        assert_eq!(sparse.total(), 2);
    }
}
