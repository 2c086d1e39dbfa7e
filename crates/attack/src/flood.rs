//! A single SYN-flooding source inside a stub network.
//!
//! The flooder emits a stream of SYN packets toward the victim with
//! spoofed source addresses. §4.2 of the paper argues the CUSUM detector's
//! sensitivity "depends only on the total volume of flooding traffic", not
//! its transient pattern, and therefore uses constant-rate floods "without
//! loss of generality"; [`FloodPattern`] provides the bursty variants too
//! so that claim is *testable* (see the ablation benches).

use std::net::{Ipv4Addr, SocketAddrV4};

use syndog_net::{MacAddr, SegmentKind};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::{Direction, PeriodSample, Trace, TraceRecord};

/// Temporal shape of the flood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FloodPattern {
    /// Constant rate for the whole duration (the paper's setting).
    Constant,
    /// On/off square wave: full rate for `on_secs`, silent for `off_secs`,
    /// repeating. The *average* rate over a full cycle equals the nominal
    /// rate (the on-phase rate is scaled up), so patterns are comparable at
    /// equal volume.
    OnOff {
        /// Seconds of flooding per cycle.
        on_secs: f64,
        /// Seconds of silence per cycle.
        off_secs: f64,
    },
    /// Linear ramp from zero to twice the nominal rate (same total
    /// volume).
    Ramp,
    /// Short pulses of `pulse_secs` every `interval_secs`, again
    /// volume-normalized.
    Pulsed {
        /// Pulse length in seconds.
        pulse_secs: f64,
        /// Pulse spacing in seconds.
        interval_secs: f64,
    },
}

/// How the flooder forges source addresses.
#[derive(Debug, Clone, PartialEq)]
pub enum SpoofStrategy {
    /// Random *unroutable* addresses — the effective strategy §1
    /// describes: the victim's SYN/ACKs can never be answered or RST.
    RandomUnroutable,
    /// Fully random 32-bit addresses: some will be reachable and answer
    /// with RSTs, partially defeating the flood (modeled downstream).
    RandomAny,
    /// A fixed list cycled deterministically.
    FixedList(Vec<Ipv4Addr>),
    /// Unroutable addresses whose /24 prefix *rotates* every `per_prefix`
    /// SYNs — the keyed-mitigation evasion strategy: each fresh /24 faces
    /// an empty token bucket, so prefix-keyed throttling degrades to pure
    /// collateral while spoofed-source accounting still sees bogons.
    RotatingPrefix {
        /// SYNs emitted from one /24 before rotating to the next.
        per_prefix: u64,
    },
}

impl SpoofStrategy {
    /// Draws the next spoofed source address.
    pub fn next_address(&self, index: u64, rng: &mut SimRng) -> Ipv4Addr {
        match self {
            SpoofStrategy::RandomUnroutable => {
                // 10/8 with random low bits: unroutable by construction.
                Ipv4Addr::new(
                    10,
                    (rng.next_u32() % 256) as u8,
                    (rng.next_u32() % 256) as u8,
                    (rng.next_u32() % 254) as u8 + 1,
                )
            }
            SpoofStrategy::RandomAny => Ipv4Addr::from(rng.next_u32()),
            SpoofStrategy::FixedList(list) => {
                assert!(!list.is_empty(), "fixed spoof list must not be empty");
                list[(index % list.len() as u64) as usize]
            }
            SpoofStrategy::RotatingPrefix { per_prefix } => {
                let prefix = index / (*per_prefix).max(1);
                // Walk 10.x.y.0/24 prefixes deterministically; low byte
                // random. Always inside 10/8, so still unroutable.
                Ipv4Addr::new(
                    10,
                    ((prefix >> 8) & 0xff) as u8,
                    (prefix & 0xff) as u8,
                    (rng.next_u32() % 254) as u8 + 1,
                )
            }
        }
    }
}

/// A flooding source: one compromised host inside one stub network.
#[derive(Debug, Clone, PartialEq)]
pub struct SynFlood {
    /// Average SYN rate in packets per second (the paper's `f_i`).
    pub rate: f64,
    /// When the flood starts, relative to trace start.
    pub start: SimTime,
    /// How long the flood lasts (the paper uses 10 minutes).
    pub duration: SimDuration,
    /// Temporal pattern.
    pub pattern: FloodPattern,
    /// Source-address forgery strategy.
    pub spoof: SpoofStrategy,
    /// The victim's listening socket.
    pub target: SocketAddrV4,
    /// The compromised host's real MAC address — what §4.2.3's
    /// localization ultimately finds.
    pub attacker_mac: MacAddr,
    /// Packed SYN fingerprint every flood packet carries (the tool's
    /// constant header template), or 0 for no fingerprint.
    pub fp: u64,
    /// When nonzero, the flooder forges a different source MAC per packet,
    /// cycling through this many addresses — defeating both prime-suspect
    /// MAC localization and MAC-keyed throttling.
    pub mac_rotation: u32,
}

impl SynFlood {
    /// A constant-rate flood with unroutable spoofing — the paper's
    /// standard attacker.
    pub fn constant(
        rate: f64,
        start: SimTime,
        duration: SimDuration,
        target: SocketAddrV4,
    ) -> Self {
        SynFlood {
            rate,
            start,
            duration,
            pattern: FloodPattern::Constant,
            spoof: SpoofStrategy::RandomUnroutable,
            target,
            attacker_mac: MacAddr::for_host(0xffff, 0xdead),
            fp: 0,
            mac_rotation: 0,
        }
    }

    /// Returns a copy with a different temporal pattern.
    pub fn with_pattern(mut self, pattern: FloodPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Returns a copy with the attacker's MAC set.
    pub fn with_mac(mut self, mac: MacAddr) -> Self {
        self.attacker_mac = mac;
        self
    }

    /// Returns a copy with the packed SYN fingerprint set.
    pub fn with_fp(mut self, fp: u64) -> Self {
        self.fp = fp;
        self
    }

    /// The instantaneous rate multiplier at `offset` seconds into the
    /// flood (integrates to 1 over the duration for every pattern).
    fn rate_multiplier(&self, offset: f64) -> f64 {
        match self.pattern {
            FloodPattern::Constant => 1.0,
            FloodPattern::OnOff { on_secs, off_secs } => {
                let cycle = on_secs + off_secs;
                let phase = offset % cycle;
                if phase < on_secs {
                    cycle / on_secs
                } else {
                    0.0
                }
            }
            FloodPattern::Ramp => 2.0 * offset / self.duration.as_secs_f64(),
            FloodPattern::Pulsed {
                pulse_secs,
                interval_secs,
            } => {
                let phase = offset % interval_secs;
                if phase < pulse_secs {
                    interval_secs / pulse_secs
                } else {
                    0.0
                }
            }
        }
    }

    /// Generates the flood's SYN timestamps (relative to trace start) by
    /// thinning a Poisson stream against the pattern envelope.
    pub fn generate_times(&self, rng: &mut SimRng) -> Vec<SimTime> {
        if self.rate <= 0.0 {
            return Vec::new();
        }
        let horizon = self.duration.as_secs_f64();
        // Peak rate bounds the thinning envelope.
        let peak = match self.pattern {
            FloodPattern::Constant => 1.0,
            FloodPattern::OnOff { on_secs, off_secs } => (on_secs + off_secs) / on_secs,
            FloodPattern::Ramp => 2.0,
            FloodPattern::Pulsed {
                pulse_secs,
                interval_secs,
            } => interval_secs / pulse_secs,
        };
        let envelope = self.rate * peak;
        let mut times = Vec::with_capacity((self.rate * horizon) as usize + 16);
        let mut t = 0.0;
        loop {
            t += rng.exponential(envelope);
            if t >= horizon {
                break;
            }
            if rng.chance(self.rate_multiplier(t) / peak) {
                times.push(self.start + SimDuration::from_secs_f64(t));
            }
        }
        times
    }

    /// Generates the flood as a [`Trace`] of outbound SYN records with
    /// spoofed sources but the attacker's true MAC.
    pub fn generate_trace(&self, rng: &mut SimRng) -> Trace {
        let times = self.generate_times(rng);
        let mut trace = Trace::new(self.start.saturating_since(SimTime::ZERO) + self.duration);
        for (i, time) in times.into_iter().enumerate() {
            let src = SocketAddrV4::new(
                self.spoof.next_address(i as u64, rng),
                1024 + (rng.next_u32() % 60000) as u16,
            );
            let mac = if self.mac_rotation > 0 {
                // Forged MACs in a block (site 0xfffe) disjoint from every
                // legitimate site's and slave's allocation.
                MacAddr::for_host(0xfffe, (i as u32) % self.mac_rotation)
            } else {
                self.attacker_mac
            };
            trace.push(
                TraceRecord::new(
                    time,
                    Direction::Outbound,
                    SegmentKind::Syn,
                    src,
                    self.target,
                )
                .with_mac(mac)
                .with_fp(self.fp),
            );
        }
        trace
    }

    /// Fast path: the flood's per-period SYN counts over `periods`
    /// observation periods of length `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn period_counts(
        &self,
        periods: usize,
        period: SimDuration,
        rng: &mut SimRng,
    ) -> Vec<PeriodSample> {
        assert!(!period.is_zero(), "observation period must be non-zero");
        let mut counts = vec![PeriodSample::default(); periods];
        for time in self.generate_times(rng) {
            let idx = time.period_index(period) as usize;
            if idx < counts.len() {
                counts[idx].syn += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_net::is_unroutable_source;

    fn victim() -> SocketAddrV4 {
        "192.0.2.80:80".parse().unwrap()
    }

    fn base_flood(pattern: FloodPattern) -> SynFlood {
        SynFlood::constant(
            100.0,
            SimTime::from_secs(60),
            SimDuration::from_secs(600),
            victim(),
        )
        .with_pattern(pattern)
    }

    #[test]
    fn constant_flood_volume_and_window() {
        let mut rng = SimRng::seed_from_u64(1);
        let times = base_flood(FloodPattern::Constant).generate_times(&mut rng);
        let volume = times.len() as f64;
        assert!((volume / 60_000.0 - 1.0).abs() < 0.05, "volume {volume}");
        assert!(times.iter().all(|t| {
            let s = t.as_secs_f64();
            (60.0..660.0).contains(&s)
        }));
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn all_patterns_are_volume_normalized() {
        let mut rng = SimRng::seed_from_u64(2);
        let patterns = [
            FloodPattern::Constant,
            FloodPattern::OnOff {
                on_secs: 20.0,
                off_secs: 20.0,
            },
            FloodPattern::Ramp,
            FloodPattern::Pulsed {
                pulse_secs: 2.0,
                interval_secs: 10.0,
            },
        ];
        for pattern in patterns {
            let times = base_flood(pattern).generate_times(&mut rng);
            let volume = times.len() as f64;
            assert!(
                (volume / 60_000.0 - 1.0).abs() < 0.07,
                "{pattern:?}: volume {volume}"
            );
        }
    }

    #[test]
    fn on_off_pattern_has_silent_phases() {
        let mut rng = SimRng::seed_from_u64(3);
        let flood = base_flood(FloodPattern::OnOff {
            on_secs: 20.0,
            off_secs: 20.0,
        });
        let counts = flood.period_counts(33, SimDuration::from_secs(20), &mut rng);
        // Flood starts at t=60s = period 3; then alternates full/empty.
        assert_eq!(counts[0].syn, 0);
        assert!(counts[3].syn > 3000, "on phase {}", counts[3].syn);
        assert_eq!(counts[4].syn, 0, "off phase must be silent");
        assert!(counts[5].syn > 3000);
    }

    #[test]
    fn ramp_pattern_increases() {
        let mut rng = SimRng::seed_from_u64(4);
        let flood = base_flood(FloodPattern::Ramp);
        let counts = flood.period_counts(33, SimDuration::from_secs(20), &mut rng);
        let early = counts[4].syn;
        let late = counts[31].syn;
        assert!(late > early * 3, "ramp: early {early}, late {late}");
    }

    #[test]
    fn unroutable_spoofing_never_emits_routable_sources() {
        let mut rng = SimRng::seed_from_u64(5);
        let trace = base_flood(FloodPattern::Constant).generate_trace(&mut rng);
        assert!(!trace.is_empty());
        for r in trace.records() {
            assert!(
                is_unroutable_source(*r.src.ip()),
                "routable spoof {}",
                r.src
            );
            assert_eq!(r.dst, victim());
            assert_eq!(r.kind, SegmentKind::Syn);
            assert_eq!(r.direction, Direction::Outbound);
        }
    }

    #[test]
    fn fixed_list_spoofing_cycles() {
        let list = vec![Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];
        let strategy = SpoofStrategy::FixedList(list.clone());
        let mut rng = SimRng::seed_from_u64(6);
        assert_eq!(strategy.next_address(0, &mut rng), list[0]);
        assert_eq!(strategy.next_address(1, &mut rng), list[1]);
        assert_eq!(strategy.next_address(2, &mut rng), list[0]);
    }

    #[test]
    fn random_any_spoofing_hits_routable_space_sometimes() {
        let strategy = SpoofStrategy::RandomAny;
        let mut rng = SimRng::seed_from_u64(7);
        let routable = (0..1000)
            .filter(|&i| !is_unroutable_source(strategy.next_address(i, &mut rng)))
            .count();
        assert!(routable > 500, "only {routable} routable of 1000");
    }

    #[test]
    fn flood_trace_carries_attacker_mac() {
        let mac = MacAddr::for_host(9, 99);
        let mut rng = SimRng::seed_from_u64(8);
        let trace = base_flood(FloodPattern::Constant)
            .with_mac(mac)
            .generate_trace(&mut rng);
        assert!(trace.records().iter().all(|r| r.src_mac == mac));
    }

    #[test]
    fn rotating_prefix_walks_unroutable_slash_24s() {
        let mut rng = SimRng::seed_from_u64(21);
        let strategy = SpoofStrategy::RotatingPrefix { per_prefix: 100 };
        let mut prefixes = std::collections::BTreeSet::new();
        for i in 0..1000u64 {
            let addr = strategy.next_address(i, &mut rng);
            assert!(
                is_unroutable_source(addr),
                "rotating prefix must stay unroutable, got {addr}"
            );
            let o = addr.octets();
            prefixes.insert((o[0], o[1], o[2]));
            // Index i sits in prefix i / 100 — the /24 is a function of
            // the index alone, not the RNG.
            assert_eq!((o[1] as u64) << 8 | o[2] as u64, i / 100);
        }
        assert_eq!(prefixes.len(), 10, "1000 SYNs at 100/prefix span 10 /24s");
    }

    #[test]
    fn mac_rotation_cycles_forged_addresses() {
        let mut rng = SimRng::seed_from_u64(22);
        let mut flood = base_flood(FloodPattern::Constant);
        flood.mac_rotation = 7;
        let trace = flood.generate_trace(&mut rng);
        let distinct: std::collections::BTreeSet<_> =
            trace.records().iter().map(|r| r.src_mac).collect();
        assert_eq!(distinct.len(), 7);
        // No forged MAC collides with the default single-attacker MAC.
        assert!(!distinct.contains(&MacAddr::for_host(0xffff, 0xdead)));
    }

    #[test]
    fn flood_trace_carries_fingerprint_on_every_syn() {
        let mut rng = SimRng::seed_from_u64(23);
        let trace = base_flood(FloodPattern::Constant)
            .with_fp(0xdead_beef)
            .generate_trace(&mut rng);
        assert!(!trace.records().is_empty());
        assert!(trace.records().iter().all(|r| r.fp == 0xdead_beef));
    }

    #[test]
    fn zero_rate_flood_is_empty() {
        let mut rng = SimRng::seed_from_u64(9);
        let flood = SynFlood::constant(0.0, SimTime::ZERO, SimDuration::from_secs(600), victim());
        assert!(flood.generate_times(&mut rng).is_empty());
    }

    #[test]
    fn period_counts_align_with_start_time() {
        let mut rng = SimRng::seed_from_u64(10);
        let flood = SynFlood::constant(
            50.0,
            SimTime::from_secs(100),
            SimDuration::from_secs(200),
            victim(),
        );
        let counts = flood.period_counts(20, SimDuration::from_secs(20), &mut rng);
        assert_eq!(counts[0].syn, 0);
        assert_eq!(counts[4].syn, 0, "period 4 ends exactly at flood start");
        assert!(counts[5].syn > 800);
        assert!(counts[15].syn == 0, "flood over by period 15");
        assert!(counts.iter().all(|c| c.synack == 0));
    }
}
