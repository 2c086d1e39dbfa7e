//! SPIE — hash-based IP traceback (Snoeren et al., SIGCOMM 2001, the
//! paper's reference \[27\]).
//!
//! Every router digests every forwarded packet into a Bloom filter; the
//! filters rotate by time window so queries can target the window in
//! which the attack packet travelled. Given a single attack packet (and
//! its arrival window), the victim's query walks the topology: a router
//! whose digest contains the packet was on the path.
//!
//! SPIE's trade against PPM is exactly inverted: one packet suffices, but
//! every router pays digest memory *continuously, for all traffic*,
//! attack or not — the per-router cost this module meters and the
//! `ablate-traceback` experiment reports.

use std::collections::HashMap;

use syndog_sim::{SimDuration, SimTime};

use crate::bloom::BloomFilter;
use crate::topology::{AttackPath, RouterId};

/// One router's digest state: a ring of per-window Bloom filters.
#[derive(Debug, Clone)]
pub struct SpieRouter {
    id: RouterId,
    window: SimDuration,
    retained_windows: usize,
    /// (window index, filter) pairs, newest last.
    digests: Vec<(u64, BloomFilter)>,
    capacity_per_window: usize,
    fp_rate: f64,
}

impl SpieRouter {
    /// Creates a router digesting into windows of `window` length,
    /// retaining `retained_windows` of history, each sized for
    /// `capacity_per_window` packets at the given false-positive rate.
    ///
    /// # Panics
    ///
    /// Panics on a zero window, zero retention, zero capacity, or an
    /// out-of-range false-positive rate.
    pub fn new(
        id: RouterId,
        window: SimDuration,
        retained_windows: usize,
        capacity_per_window: usize,
        fp_rate: f64,
    ) -> Self {
        assert!(!window.is_zero(), "digest window must be non-zero");
        assert!(retained_windows > 0, "must retain at least one window");
        SpieRouter {
            id,
            window,
            retained_windows,
            digests: Vec::new(),
            capacity_per_window,
            fp_rate,
        }
    }

    /// This router's id.
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// Total digest memory currently held, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.digests.iter().map(|(_, b)| b.byte_size()).sum()
    }

    fn window_index(&self, at: SimTime) -> u64 {
        at.period_index(self.window)
    }

    fn filter_for(&mut self, index: u64) -> &mut BloomFilter {
        if self.digests.last().map(|(i, _)| *i) != Some(index) {
            self.digests.push((
                index,
                BloomFilter::with_capacity(self.capacity_per_window, self.fp_rate),
            ));
            let retained = self.retained_windows;
            if self.digests.len() > retained {
                let drop_count = self.digests.len() - retained;
                self.digests.drain(..drop_count);
            }
        }
        &mut self.digests.last_mut().expect("just ensured").1
    }

    /// Digests one forwarded packet (identified by its invariant bytes).
    pub fn digest(&mut self, at: SimTime, packet: &[u8]) {
        let index = self.window_index(at);
        self.filter_for(index).insert(packet);
    }

    /// Answers a traceback query: was `packet` forwarded here during the
    /// window containing `at`?
    pub fn query(&self, at: SimTime, packet: &[u8]) -> bool {
        let index = self.window_index(at);
        self.digests
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, bloom)| bloom.contains(packet))
            .unwrap_or(false)
    }
}

/// A set of SPIE routers forming the traced network.
#[derive(Debug, Clone, Default)]
pub struct SpieNetwork {
    routers: HashMap<RouterId, SpieRouter>,
}

impl SpieNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provisions routers for every hop of `path` with shared parameters.
    pub fn provision_path(
        &mut self,
        path: &AttackPath,
        window: SimDuration,
        retained_windows: usize,
        capacity_per_window: usize,
        fp_rate: f64,
    ) {
        for &id in path.routers() {
            self.routers.entry(id).or_insert_with(|| {
                SpieRouter::new(id, window, retained_windows, capacity_per_window, fp_rate)
            });
        }
    }

    /// Forwards one packet along `path` at time `at`: every on-path router
    /// digests it.
    pub fn forward(&mut self, path: &AttackPath, at: SimTime, packet: &[u8]) {
        for id in path.routers() {
            if let Some(router) = self.routers.get_mut(id) {
                router.digest(at, packet);
            }
        }
    }

    /// Digests unrelated background traffic at a single router (load that
    /// costs memory but is never queried).
    pub fn background(&mut self, router: RouterId, at: SimTime, packet: &[u8]) {
        if let Some(router) = self.routers.get_mut(&router) {
            router.digest(at, packet);
        }
    }

    /// Traces one attack packet: returns every router whose digest for the
    /// packet's window contains it. With adequately-sized filters this is
    /// the attack path (up to Bloom false positives).
    pub fn trace(&self, at: SimTime, packet: &[u8]) -> Vec<RouterId> {
        let mut hits: Vec<RouterId> = self
            .routers
            .values()
            .filter(|router| router.query(at, packet))
            .map(SpieRouter::id)
            .collect();
        hits.sort();
        hits
    }

    /// Total digest memory across all routers, in bytes.
    pub fn total_memory_bytes(&self) -> usize {
        self.routers.values().map(SpieRouter::memory_bytes).sum()
    }

    /// Number of provisioned routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<RouterId> {
        v.iter().copied().map(RouterId).collect()
    }

    fn provisioned(path: &AttackPath) -> SpieNetwork {
        let mut network = SpieNetwork::new();
        network.provision_path(path, SimDuration::from_secs(60), 4, 10_000, 0.001);
        network
    }

    #[test]
    fn single_packet_traces_full_path() {
        let path = AttackPath::new(ids(&[1, 2, 3, 4, 5]));
        let mut network = provisioned(&path);
        let at = SimTime::from_secs(10);
        network.forward(&path, at, b"attack packet digest bytes");
        let traced = network.trace(at, b"attack packet digest bytes");
        assert_eq!(traced, ids(&[1, 2, 3, 4, 5]));
    }

    #[test]
    fn off_path_routers_do_not_match() {
        let path = AttackPath::new(ids(&[1, 2, 3]));
        let other = AttackPath::new(ids(&[7, 8, 9]));
        let mut network = provisioned(&path);
        network.provision_path(&other, SimDuration::from_secs(60), 4, 10_000, 0.001);
        let at = SimTime::from_secs(5);
        network.forward(&path, at, b"the attack packet");
        network.forward(&other, at, b"unrelated traffic");
        assert_eq!(network.trace(at, b"the attack packet"), ids(&[1, 2, 3]));
    }

    #[test]
    fn queries_are_window_scoped() {
        let path = AttackPath::new(ids(&[1, 2]));
        let mut network = provisioned(&path);
        network.forward(&path, SimTime::from_secs(10), b"pkt");
        // Same packet, asked about the wrong minute: no match.
        assert!(network.trace(SimTime::from_secs(100), b"pkt").is_empty());
        assert_eq!(network.trace(SimTime::from_secs(59), b"pkt"), ids(&[1, 2]));
    }

    #[test]
    fn old_windows_expire_bounding_memory() {
        let mut router = SpieRouter::new(RouterId(1), SimDuration::from_secs(60), 2, 1000, 0.01);
        for minute in 0..10u64 {
            router.digest(SimTime::from_secs(minute * 60 + 1), &minute.to_be_bytes());
        }
        // Only 2 windows retained.
        assert!(router.query(SimTime::from_secs(9 * 60 + 1), &9u64.to_be_bytes()));
        assert!(router.query(SimTime::from_secs(8 * 60 + 1), &8u64.to_be_bytes()));
        assert!(!router.query(SimTime::from_secs(60 + 1), &1u64.to_be_bytes()));
        let two_windows = router.memory_bytes();
        // Memory stays bounded by the retention limit.
        for minute in 10..50u64 {
            router.digest(SimTime::from_secs(minute * 60 + 1), &minute.to_be_bytes());
        }
        assert_eq!(router.memory_bytes(), two_windows);
    }

    #[test]
    fn memory_scales_with_line_rate() {
        // SPIE's cost: digest memory is proportional to capacity (line
        // rate × window), regardless of whether an attack ever happens.
        let small = SpieRouter::new(RouterId(1), SimDuration::from_secs(60), 2, 10_000, 0.001);
        let big = SpieRouter::new(RouterId(2), SimDuration::from_secs(60), 2, 1_000_000, 0.001);
        let mut small = small;
        let mut big = big;
        small.digest(SimTime::ZERO, b"x");
        big.digest(SimTime::ZERO, b"x");
        assert!(big.memory_bytes() > small.memory_bytes() * 50);
    }

    #[test]
    fn heavy_background_load_may_false_positive_but_rarely() {
        let path = AttackPath::new(ids(&[1, 2, 3]));
        let mut network = provisioned(&path);
        let at = SimTime::from_secs(30);
        // Load router 1 with lots of background traffic.
        for i in 0..9_000u32 {
            network.background(RouterId(1), at, &i.to_be_bytes());
        }
        network.forward(&path, at, b"attack");
        let traced = network.trace(at, b"attack");
        // The true path is always included.
        for id in path.routers() {
            assert!(traced.contains(id));
        }
    }
}
