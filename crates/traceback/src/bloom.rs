//! A from-scratch Bloom filter, the data structure under SPIE's packet
//! digests.
//!
//! `k` hash positions are derived by double hashing (Kirsch–Mitzenmacher):
//! two independent 64-bit mixes `h1`, `h2` give position
//! `(h1 + i·h2) mod m` for the i-th probe. False-positive probability at
//! load `n` is the classical `(1 − e^{−kn/m})^k`, which the tests verify
//! empirically.

use serde::{Deserialize, Serialize};

/// A fixed-size Bloom filter over byte strings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
    inserted: u64,
}

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_pair(data: &[u8]) -> (u64, u64) {
    // FNV-1a for the base value, then two decorrelated mixes.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let h1 = mix64(h);
    let h2 = mix64(h ^ 0x9e37_79b9_7f4a_7c15) | 1; // odd, so probes cycle
    (h1, h2)
}

impl BloomFilter {
    /// Creates a filter with `m` bits and `k` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `m` or `k` is zero.
    pub fn new(m: usize, k: u32) -> Self {
        assert!(m > 0, "bloom filter needs at least one bit");
        assert!(k > 0, "bloom filter needs at least one hash");
        BloomFilter {
            bits: vec![0; m.div_ceil(64)],
            m,
            k,
            inserted: 0,
        }
    }

    /// Creates a filter sized for `capacity` items at roughly the target
    /// false-positive rate: `m = −n·ln(fp)/ln(2)²`, `k = (m/n)·ln 2`.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity > 0` and `0 < fp < 1`.
    pub fn with_capacity(capacity: usize, fp: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            fp > 0.0 && fp < 1.0,
            "false-positive rate must lie in (0, 1)"
        );
        let ln2 = std::f64::consts::LN_2;
        let m = (-(capacity as f64) * fp.ln() / (ln2 * ln2)).ceil() as usize;
        let k = ((m as f64 / capacity as f64) * ln2).round().max(1.0) as u32;
        Self::new(m.max(64), k)
    }

    /// Items inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Memory footprint of the bit array in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }

    fn positions(&self, data: &[u8]) -> impl Iterator<Item = usize> + '_ {
        let (h1, h2) = hash_pair(data);
        let m = self.m as u64;
        (0..self.k).map(move |i| (h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % m) as usize)
    }

    /// Inserts an item.
    pub fn insert(&mut self, data: &[u8]) {
        let positions: Vec<usize> = self.positions(data).collect();
        for pos in positions {
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
        self.inserted += 1;
    }

    /// Membership query: `false` is definitive, `true` may be a false
    /// positive with probability `(1 − e^{−kn/m})^k` after `n` inserts.
    pub fn contains(&self, data: &[u8]) -> bool {
        self.positions(data)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }

    /// Clears all bits (reuse across SPIE time windows).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classical false-positive estimate at the filter's load:
    /// `(1 − e^{−kn/m})^k`.
    fn estimated_fp_rate(bloom: &BloomFilter) -> f64 {
        let exponent = -(f64::from(bloom.k) * bloom.inserted as f64) / bloom.m as f64;
        (1.0 - exponent.exp()).powi(bloom.k as i32)
    }

    #[test]
    fn inserted_items_are_always_found() {
        let mut bloom = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u32 {
            bloom.insert(&i.to_be_bytes());
        }
        for i in 0..1000u32 {
            assert!(bloom.contains(&i.to_be_bytes()), "lost item {i}");
        }
        assert_eq!(bloom.inserted(), 1000);
    }

    #[test]
    fn false_positive_rate_near_design_point() {
        let mut bloom = BloomFilter::with_capacity(10_000, 0.01);
        for i in 0..10_000u32 {
            bloom.insert(&i.to_be_bytes());
        }
        let false_positives = (10_000..110_000u32)
            .filter(|i| bloom.contains(&i.to_be_bytes()))
            .count();
        let rate = false_positives as f64 / 100_000.0;
        assert!(rate < 0.03, "fp rate {rate} far above design 0.01");
        assert!(
            rate > 0.001,
            "fp rate {rate} suspiciously low — hashes broken?"
        );
        // The analytic estimate agrees with the design point.
        let estimate = estimated_fp_rate(&bloom);
        assert!((0.002..0.03).contains(&estimate), "estimate {estimate}");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bloom = BloomFilter::new(1024, 4);
        let hits = (0..10_000u32)
            .filter(|i| bloom.contains(&i.to_be_bytes()))
            .count();
        assert_eq!(hits, 0);
        assert_eq!(estimated_fp_rate(&bloom), 0.0);
    }

    #[test]
    fn clear_resets_completely() {
        let mut bloom = BloomFilter::new(512, 3);
        bloom.insert(b"packet digest");
        assert!(bloom.contains(b"packet digest"));
        bloom.clear();
        assert!(!bloom.contains(b"packet digest"));
        assert_eq!(bloom.inserted(), 0);
    }

    #[test]
    fn sizing_formula_shapes() {
        let tight = BloomFilter::with_capacity(1000, 0.001);
        let loose = BloomFilter::with_capacity(1000, 0.1);
        assert!(tight.m > loose.m);
        assert!(tight.k >= loose.k);
        assert_eq!(tight.byte_size(), tight.m.div_ceil(64) * 8);
    }

    #[test]
    fn distinct_items_rarely_collide_on_all_probes() {
        // Direct sanity on hash_pair dispersion: in a sparse filter,
        // near-identical keys must not alias.
        let mut bloom = BloomFilter::new(1 << 16, 6);
        bloom.insert(b"10.0.0.1:1025>199.0.0.80:80#1");
        assert!(!bloom.contains(b"10.0.0.1:1025>199.0.0.80:80#2"));
        assert!(!bloom.contains(b"10.0.0.1:1026>199.0.0.80:80#1"));
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_rejected() {
        let _ = BloomFilter::new(0, 3);
    }
}
