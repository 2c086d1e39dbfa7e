//! The three metric primitives: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! All three share one discipline: the *record* path (`inc`, `add`, `set`,
//! `record`) is a handful of relaxed atomic operations — no mutex, no
//! allocation, no ordering stronger than `Relaxed` — so the fleet's worker
//! threads can share one hub without perturbing their hot paths.
//! Cross-metric consistency is explicitly *not* promised at read time: a
//! snapshot taken mid-update may see counter A bumped and counter B not
//! yet. What *is* promised is that no increment is ever lost: the
//! 8-thread exactness test in `tests/concurrency.rs` pins that down for
//! every primitive.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. One relaxed `fetch_add`; safe from any thread.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, current statistics).
///
/// Stored as `f64` bits in an `AtomicU64` so one type serves both integer
/// gauges (channel depth) and floating-point gauges (the CUSUM `y_n`).
/// `set` is a single relaxed store; `add` is a lock-free CAS loop.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value. One relaxed store.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (negative to subtract). Lock-free compare-and-swap.
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Subtracts `delta`.
    #[inline]
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets: values `0, 1, 2, 4, …, 2^62`, plus the implicit
/// `+Inf` tail Prometheus adds at exposition time. Bucket `i` holds values
/// `v` with `2^(i-1) < v <= 2^i` (bucket 0 holds zero and one).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram of non-negative integer observations
/// (typically microseconds or element counts).
///
/// `record` is two relaxed `fetch_add`s plus one for the sum — no lock, no
/// float math, no allocation. Bucket boundaries are powers of two, which
/// keeps the bucket index a single `leading_zeros` instruction and gives
/// the ~2x resolution tuning curves need without configuration.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index for a value: 0 for 0 and 1, otherwise the position
    /// of the highest set bit (so bucket `i` spans `(2^(i-1), 2^i]`).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        match value {
            0 | 1 => 0,
            v => {
                let bits = 64 - u64::from(v.leading_zeros());
                // A power of two sits at the *boundary* of its bucket;
                // everything past 2^62 shares the saturating last bucket.
                let index = if v.is_power_of_two() { bits - 1 } else { bits };
                (index as usize).min(HISTOGRAM_BUCKETS - 1)
            }
        }
    }

    /// The inclusive upper bound of bucket `i` (`2^i`), saturating at
    /// `u64::MAX` for the last bucket.
    pub fn bucket_bound(index: usize) -> u64 {
        if index >= 63 {
            u64::MAX
        } else {
            1u64 << index
        }
    }

    /// Records one observation. Three relaxed `fetch_add`s.
    #[inline]
    pub fn record(&self, value: u64) {
        let index = Self::bucket_index(value);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (wraps at `u64::MAX`, like Prometheus
    /// counters — consumers take rates, not absolutes).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_reads() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        c.add(0);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_sets_adds_and_goes_negative() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.add(0.5);
        g.sub(4.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(1025), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        // Every value lands in the bucket whose bound is >= it.
        for v in [0u64, 1, 2, 3, 7, 8, 9, 100, 1 << 40] {
            let i = Histogram::bucket_index(v);
            assert!(Histogram::bucket_bound(i) >= v, "value {v} bucket {i}");
            if i > 0 {
                assert!(Histogram::bucket_bound(i - 1) < v, "value {v} bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 2); // 0 and 1
        assert_eq!(buckets[1], 1); // 2
        assert_eq!(buckets[2], 1); // 3
        assert_eq!(buckets[10], 1); // 1000
        assert_eq!(buckets.iter().sum::<u64>(), 5);
    }
}
