//! Calibrated synthetic equivalents of the paper's four trace sites.
//!
//! The original LBL (1994), Harvard (1997), UNC (2000) and Auckland (2000)
//! traces are not redistributable, so each [`SiteProfile`] reproduces the
//! *statistics the detector actually consumes*: the per-period SYN and
//! SYN/ACK magnitudes visible in Figures 3–4, the residual normal mean
//! `c = E[Δ]/K̄`, the burstiness that produces Figure 5's isolated `y_n`
//! spikes, and the derived `K̄` values implied by the paper's `f_min`
//! numbers (UNC: `f_min = 37 SYN/s` ⇒ `K̄ ≈ 2114` per 20 s period;
//! Auckland: `f_min = 1.75` ⇒ `K̄ ≈ 100`).
//!
//! Besides arrival burstiness, real traces contain occasional *unanswered
//! SYN bursts* (scanners, connections to dead hosts, transient outages).
//! These are what give Figure 5 its isolated spikes (max ≈ 0.05 at
//! Harvard, ≈ 0.26 at Auckland) — a pure loss-rate model would be far too
//! smooth — so each profile includes a capped-Pareto anomaly process,
//! documented in DESIGN.md.

use std::net::{Ipv4Addr, SocketAddrV4};

use syndog_net::{Ipv4Net, MacAddr, SegmentKind};
use syndog_sim::{SimDuration, SimRng, SimTime};

use crate::arrival::{ArrivalModel, MmppArrivals, ParetoOnOffArrivals, PoissonArrivals};
use crate::connection::{simulate_handshake, ConnectionParams};
use crate::trace::{Direction, PeriodSample, Trace, TraceRecord};

/// The observation period used throughout the paper: 20 seconds.
pub const OBSERVATION_PERIOD: SimDuration = SimDuration::from_secs(20);

/// Arrival model selection for a site (a closed enum so profiles stay
/// `Clone + Debug` without boxing).
#[derive(Debug, Clone, PartialEq)]
enum SiteArrivals {
    Poisson(PoissonArrivals),
    Mmpp(MmppArrivals),
    ParetoOnOff(ParetoOnOffArrivals),
}

impl ArrivalModel for SiteArrivals {
    fn generate(&self, duration: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        match self {
            SiteArrivals::Poisson(m) => m.generate(duration, rng),
            SiteArrivals::Mmpp(m) => m.generate(duration, rng),
            SiteArrivals::ParetoOnOff(m) => m.generate(duration, rng),
        }
    }

    fn mean_rate(&self) -> f64 {
        match self {
            SiteArrivals::Poisson(m) => m.mean_rate(),
            SiteArrivals::Mmpp(m) => m.mean_rate(),
            SiteArrivals::ParetoOnOff(m) => m.mean_rate(),
        }
    }
}

/// Occasional bursts of unanswered SYNs (scanners, dead hosts). Sizes are
/// Pareto with a hard cap: bursts large enough to cross the detection
/// threshold would be genuine incidents, not background noise.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AnomalyModel {
    events_per_hour: f64,
    size_xm: f64,
    size_alpha: f64,
    size_cap: f64,
}

impl AnomalyModel {
    /// Generates `(time, syn_count)` anomaly bursts over `duration`.
    fn generate(&self, duration: SimDuration, rng: &mut SimRng) -> Vec<(SimTime, u64)> {
        let hours = duration.as_secs_f64() / 3600.0;
        let count = rng.poisson(self.events_per_hour * hours);
        (0..count)
            .map(|_| {
                let at = SimTime::from_secs_f64(rng.uniform_range(0.0, duration.as_secs_f64()));
                let size = rng.pareto(self.size_xm, self.size_alpha).min(self.size_cap);
                (at, size.round().max(1.0) as u64)
            })
            .collect()
    }
}

/// A calibrated model of one trace site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteProfile {
    name: &'static str,
    duration: SimDuration,
    bidirectional: bool,
    /// Fraction of connections initiated from outside the stub network
    /// (only meaningful for bidirectional sites).
    inbound_fraction: f64,
    arrivals: SiteArrivals,
    conn: ConnectionParams,
    anomaly: AnomalyModel,
    stub: Ipv4Net,
    stub_hosts: u32,
    site_id: u16,
}

impl SiteProfile {
    /// LBL 1994: one hour, bi-directional, low rate (tens of handshakes
    /// per period — Figure 3a's 0–50 packet axis).
    pub fn lbl() -> Self {
        SiteProfile {
            name: "LBL",
            duration: SimDuration::from_secs(3600),
            bidirectional: true,
            inbound_fraction: 0.35,
            arrivals: SiteArrivals::Poisson(PoissonArrivals::new(0.75)),
            conn: ConnectionParams::clean().with_losses(0.025, 0.012),
            anomaly: AnomalyModel {
                events_per_hour: 2.0,
                size_xm: 2.0,
                size_alpha: 1.8,
                size_cap: 5.0,
            },
            stub: "128.3.0.0/16".parse().expect("static prefix"),
            stub_hosts: 400,
            site_id: 0,
        }
    }

    /// Harvard 1997: half an hour, bi-directional, a few hundred
    /// handshakes per period (Figure 3b), very quiet CUSUM statistic
    /// (Figure 5a max ≈ 0.05).
    pub fn harvard() -> Self {
        SiteProfile {
            name: "Harvard",
            duration: SimDuration::from_secs(1800),
            bidirectional: true,
            inbound_fraction: 0.3,
            arrivals: SiteArrivals::Mmpp(MmppArrivals::bursty(18.0, 1.6, 100.0, 25.0)),
            conn: ConnectionParams::clean().with_losses(0.022, 0.010),
            anomaly: AnomalyModel {
                events_per_hour: 12.0,
                size_xm: 40.0,
                size_alpha: 1.4,
                size_cap: 150.0,
            },
            stub: "128.103.0.0/16".parse().expect("static prefix"),
            stub_hosts: 3000,
            site_id: 1,
        }
    }

    /// UNC 2000: half an hour, uni-directional pair, the paper's largest
    /// site (35,000+ users). Calibrated so `K̄ ≈ 2114` per period, giving
    /// the paper's `f_min ≈ 37 SYN/s`, with residual mean `c ≈ 0.05`.
    pub fn unc() -> Self {
        SiteProfile {
            name: "UNC",
            duration: SimDuration::from_secs(1800),
            bidirectional: false,
            inbound_fraction: 0.0,
            arrivals: SiteArrivals::Mmpp(MmppArrivals::bursty(88.0, 2.0, 120.0, 30.0)),
            conn: ConnectionParams::clean().with_losses(0.039, 0.0165),
            anomaly: AnomalyModel {
                events_per_hour: 5.0,
                size_xm: 120.0,
                size_alpha: 1.4,
                size_cap: 1100.0,
            },
            stub: "152.2.0.0/16".parse().expect("static prefix"),
            stub_hosts: 35000,
            site_id: 2,
        }
    }

    /// Auckland 2000: three hours, uni-directional pair, a medium-size
    /// site. Calibrated so `K̄ ≈ 100` per period (`f_min ≈ 1.75 SYN/s`),
    /// with the burstier statistic of Figure 5c (isolated spikes up to
    /// ≈ 0.26) and residual mean `c ≈ 0.1`.
    pub fn auckland() -> Self {
        SiteProfile {
            name: "Auckland",
            duration: SimDuration::from_secs(3 * 3600),
            bidirectional: false,
            inbound_fraction: 0.0,
            arrivals: SiteArrivals::ParetoOnOff(ParetoOnOffArrivals::new(25, 1.0, 2.0, 8.0, 1.3)),
            conn: ConnectionParams::clean().with_losses(0.060, 0.033),
            anomaly: AnomalyModel {
                events_per_hour: 6.0,
                size_xm: 8.0,
                size_alpha: 1.5,
                size_cap: 45.0,
            },
            stub: "130.216.0.0/16".parse().expect("static prefix"),
            stub_hosts: 4000,
            site_id: 3,
        }
    }

    /// All four profiles, in the paper's Table 1 order.
    pub fn all() -> Vec<SiteProfile> {
        vec![Self::lbl(), Self::harvard(), Self::unc(), Self::auckland()]
    }

    /// Returns the profile truncated (or extended) to a new trace duration.
    ///
    /// Fleet scenarios and CI smoke runs use this to drive many stubs with a
    /// site's workload without paying for the full Table 1 trace length.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Returns the profile re-homed into a different stub prefix.
    ///
    /// `site_id` namespaces the MAC addresses of simulated hosts, so two
    /// re-homed copies of the same profile never share a MAC. Used by fleet
    /// scenarios that place the same workload in many stub networks.
    pub fn rehomed(mut self, stub: Ipv4Net, site_id: u16) -> Self {
        self.stub = stub;
        self.site_id = site_id;
        self
    }

    /// The site name as used in the paper.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Trace duration (Table 1).
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Whether the original trace was bi-directional (Table 1).
    pub fn bidirectional(&self) -> bool {
        self.bidirectional
    }

    /// The stub network prefix clients live in.
    pub fn stub(&self) -> Ipv4Net {
        self.stub
    }

    /// Number of simulated hosts inside the stub network.
    pub fn stub_hosts(&self) -> u32 {
        self.stub_hosts
    }

    /// Mean connection attempts per second.
    pub fn mean_arrival_rate(&self) -> f64 {
        self.arrivals.mean_rate()
    }

    /// The expected SYN/ACK count per observation period (`K̄`), from the
    /// arrival rate and handshake parameters.
    pub fn expected_k(&self) -> f64 {
        self.arrivals.mean_rate() * OBSERVATION_PERIOD.as_secs_f64() * self.conn.expected_synacks()
    }

    /// The residual normal-operation mean `c` this profile induces
    /// (loss-driven part only; arrival burstiness adds variance, not mean).
    pub fn residual_mean(&self) -> f64 {
        self.conn.residual_mean()
    }

    /// Number of whole observation periods in the trace.
    pub fn periods(&self) -> usize {
        (self.duration.as_micros() / OBSERVATION_PERIOD.as_micros()) as usize
    }

    /// Fast path: per-period sniffer counts without materializing records.
    ///
    /// Uses the same handshake machinery as [`SiteProfile::generate_trace`]
    /// but bins SYN/SYN-ACK events directly into period buckets
    /// (handshake-only; data segments don't affect the sniffers).
    pub fn generate_period_counts(&self, rng: &mut SimRng) -> Vec<PeriodSample> {
        let periods = self.periods();
        let mut counts = vec![PeriodSample::default(); periods];
        for start in self.arrivals.generate(self.duration, rng) {
            simulate_handshake(start, &self.conn, false, rng, |segment| {
                let idx = segment.period_index(OBSERVATION_PERIOD) as usize;
                if idx >= counts.len() {
                    return;
                }
                // Uni-directional profiles count outbound SYN / inbound
                // SYN/ACK; bidirectional profiles (LBL, Harvard) count both
                // directions, which for counting purposes is the same
                // arithmetic regardless of who initiated.
                match (segment.direction, segment.kind) {
                    (Direction::Outbound, SegmentKind::Syn) => counts[idx].syn += 1,
                    (Direction::Inbound, SegmentKind::SynAck) => counts[idx].synack += 1,
                    _ => {}
                }
            });
        }
        for (at, size) in self.anomaly.generate(self.duration, rng) {
            let idx = at.period_index(OBSERVATION_PERIOD) as usize;
            if idx < counts.len() {
                counts[idx].syn += size;
            }
        }
        counts
    }

    /// Full path: a complete [`Trace`] with addresses and MACs, suitable
    /// for the router simulation, pcap export and source localization.
    ///
    /// The records come out in time order, ties in the order generated
    /// (what a stable sort of the whole stream gives), with no global
    /// sort: each record is binned by observation period as it is
    /// generated, and only the small bins are sorted.
    pub fn generate_trace(&self, rng: &mut SimRng) -> Trace {
        let mut trace = PeriodBins::new(self.duration);
        let arrivals = self.arrivals.generate(self.duration, rng);
        for start in arrivals {
            let inbound_initiated = self.bidirectional && rng.chance(self.inbound_fraction);
            let host_index = rng.uniform_u64(0, u64::from(self.stub_hosts)) as u32;
            let client_inside = SocketAddrV4::new(
                self.stub.host(host_index),
                1024 + (rng.next_u32() % 60000) as u16,
            );
            let outside = SocketAddrV4::new(external_server(rng), 80);
            let mac = MacAddr::for_host(self.site_id, host_index);
            // Each stub host runs one operating system; its SYNs carry that
            // OS's constant fingerprint, so the site-level mix shows the
            // weighted OS distribution (high entropy — unlike a flood).
            let host_fp = syndog_fingerprint::os_mix::for_host(self.site_id, host_index).to_bits();
            simulate_handshake(start, &self.conn, true, rng, |segment| {
                let (time, direction, kind) = (segment.time(), segment.direction, segment.kind);
                // For inbound-initiated connections every direction flips:
                // the SYN arrives inbound, the SYN/ACK leaves outbound.
                let (direction, src, dst, src_mac) = if inbound_initiated {
                    match direction {
                        Direction::Outbound => {
                            (Direction::Inbound, outside, client_inside, MacAddr::ZERO)
                        }
                        Direction::Inbound => (Direction::Outbound, client_inside, outside, mac),
                    }
                } else {
                    match direction {
                        Direction::Outbound => (Direction::Outbound, client_inside, outside, mac),
                        Direction::Inbound => {
                            (Direction::Inbound, outside, client_inside, MacAddr::ZERO)
                        }
                    }
                };
                let fp = if kind == SegmentKind::Syn && direction == Direction::Outbound {
                    host_fp
                } else {
                    0
                };
                trace.push(TraceRecord {
                    time,
                    direction,
                    kind,
                    src,
                    dst,
                    src_mac,
                    fp,
                });
            });
        }
        // Anomalies: a scanner host inside the stub emits unanswered SYNs.
        for (at, size) in self.anomaly.generate(self.duration, rng) {
            let host_index = rng.uniform_u64(0, u64::from(self.stub_hosts)) as u32;
            let scanner = SocketAddrV4::new(
                self.stub.host(host_index),
                1024 + (rng.next_u32() % 60000) as u16,
            );
            let mac = MacAddr::for_host(self.site_id, host_index);
            for i in 0..size {
                let t = at + SimDuration::from_millis(i * 7 % 10_000);
                trace.push(
                    TraceRecord::new(
                        t,
                        Direction::Outbound,
                        SegmentKind::Syn,
                        scanner,
                        SocketAddrV4::new(external_server(rng), 80),
                    )
                    .with_mac(mac)
                    .with_fp(
                        syndog_fingerprint::os_mix::for_host(self.site_id, host_index).to_bits(),
                    ),
                );
            }
        }
        trace.into_trace(self.duration)
    }
}

/// Records binned by the observation period they fall in, with one more
/// bin for handshake tails past the span, each bin in the order its
/// records were generated. Bins are disjoint time ranges in time order,
/// so ordering each small bin by time, ties in push order ([`time_order`]),
/// and copying its records in that order into one exactly sized `Vec`
/// orders the whole stream exactly as a stable sort would.
struct PeriodBins {
    bins: Vec<Vec<TraceRecord>>,
}

impl PeriodBins {
    fn new(span: SimDuration) -> Self {
        let periods = span.as_micros().div_ceil(OBSERVATION_PERIOD.as_micros()) as usize;
        PeriodBins {
            bins: vec![Vec::new(); periods + 1],
        }
    }

    fn push(&mut self, record: TraceRecord) {
        let last = self.bins.len() - 1;
        let bin = (record.time.period_index(OBSERVATION_PERIOD) as usize).min(last);
        self.bins[bin].push(record);
    }

    fn into_trace(self, span: SimDuration) -> Trace {
        let mut records = Vec::with_capacity(self.bins.iter().map(Vec::len).sum());
        for bin in self.bins {
            records.extend(time_order(&bin).into_iter().map(|i| bin[i as usize]));
        }
        Trace::from_time_ordered(records, span)
    }
}

/// The indices of `bin`'s records by time, ties in push order: a
/// least-significant-digit radix sort, which is stable, of each record's
/// time since the bin's earliest, 13 bits a pass and as many passes as
/// the widest offset needs (two for a 20 s period, more for a wider tail
/// bin).
fn time_order(bin: &[TraceRecord]) -> Vec<u32> {
    const DIGIT_BITS: u32 = 13;
    const DIGITS: usize = 1 << DIGIT_BITS;
    let base = bin.iter().map(|r| r.time.as_micros()).min().unwrap_or(0);
    let offsets: Vec<u64> = bin.iter().map(|r| r.time.as_micros() - base).collect();
    let widest = offsets.iter().copied().max().unwrap_or(0);
    let mut order: Vec<u32> = (0..bin.len() as u32).collect();
    let mut next = vec![0; bin.len()];
    let mut shift = 0;
    while shift < u64::BITS && widest >> shift != 0 {
        let digit = |i: u32| (offsets[i as usize] >> shift) as usize % DIGITS;
        let mut starts = [0u32; DIGITS];
        for &i in &order {
            starts[digit(i)] += 1;
        }
        let mut sum = 0;
        for start in &mut starts {
            (*start, sum) = (sum, sum + *start);
        }
        for &i in &order {
            next[starts[digit(i)] as usize] = i;
            starts[digit(i)] += 1;
        }
        std::mem::swap(&mut order, &mut next);
        shift += DIGIT_BITS;
    }
    order
}

/// Draws a plausible external (routable, outside any stub prefix) server
/// address.
fn external_server(rng: &mut SimRng) -> Ipv4Addr {
    // 64.0.0.0/10-ish space: always routable, never inside the stub nets.
    Ipv4Addr::new(
        64 + (rng.next_u32() % 32) as u8,
        (rng.next_u32() % 256) as u8,
        (rng.next_u32() % 256) as u8,
        1 + (rng.next_u32() % 250) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_inventory() {
        let all = SiteProfile::all();
        assert_eq!(all.len(), 4);
        let names: Vec<_> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["LBL", "Harvard", "UNC", "Auckland"]);
        assert_eq!(all[0].duration(), SimDuration::from_secs(3600));
        assert_eq!(all[1].duration(), SimDuration::from_secs(1800));
        assert_eq!(all[3].duration(), SimDuration::from_secs(3 * 3600));
        assert!(all[0].bidirectional() && all[1].bidirectional());
        assert!(!all[2].bidirectional() && !all[3].bidirectional());
    }

    #[test]
    fn unc_calibration_matches_paper_fmin() {
        let unc = SiteProfile::unc();
        // K̄ ≈ 2114 per period ⇒ f_min = 0.35·K̄/20 ≈ 37 SYN/s.
        let k = unc.expected_k();
        assert!((k - 2114.0).abs() < 60.0, "UNC K̄ = {k}");
        let f_min = 0.35 * k / 20.0;
        assert!((f_min - 37.0).abs() < 1.5, "UNC f_min = {f_min}");
        // Residual mean c ≈ 0.05.
        let c = unc.residual_mean();
        assert!((0.03..0.08).contains(&c), "UNC c = {c}");
    }

    #[test]
    fn auckland_calibration_matches_paper_fmin() {
        let auckland = SiteProfile::auckland();
        let k = auckland.expected_k();
        assert!((k - 100.0).abs() < 8.0, "Auckland K̄ = {k}");
        let f_min = 0.35 * k / 20.0;
        assert!((f_min - 1.75).abs() < 0.2, "Auckland f_min = {f_min}");
        let c = auckland.residual_mean();
        assert!((0.07..0.13).contains(&c), "Auckland c = {c}");
    }

    #[test]
    fn generated_counts_match_expected_k() {
        let mut rng = SimRng::seed_from_u64(42);
        for site in [SiteProfile::unc(), SiteProfile::auckland()] {
            let counts = site.generate_period_counts(&mut rng);
            assert_eq!(counts.len(), site.periods());
            let mean_synack: f64 =
                counts.iter().map(|c| c.synack as f64).sum::<f64>() / counts.len() as f64;
            let expected = site.expected_k();
            assert!(
                (mean_synack / expected - 1.0).abs() < 0.15,
                "{}: mean synack {mean_synack} vs expected {expected}",
                site.name()
            );
        }
    }

    #[test]
    fn syn_synack_strongly_correlated_under_normal_traffic() {
        // Figure 3/4's "consistent synchronization": per-period SYN and
        // SYN/ACK counts track each other closely.
        let mut rng = SimRng::seed_from_u64(7);
        let counts = SiteProfile::unc().generate_period_counts(&mut rng);
        let syn: Vec<f64> = counts.iter().map(|c| c.syn as f64).collect();
        let synack: Vec<f64> = counts.iter().map(|c| c.synack as f64).collect();
        let r = pearson(&syn, &synack);
        assert!(r > 0.95, "correlation {r}");
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
        cov / (va.sqrt() * vb.sqrt())
    }

    #[test]
    fn trace_and_fast_path_agree_statistically() {
        let site = SiteProfile::auckland();
        let mut rng_a = SimRng::seed_from_u64(11);
        let mut rng_b = SimRng::seed_from_u64(11);
        let fast = site.generate_period_counts(&mut rng_a);
        let trace = site.generate_trace(&mut rng_b);
        let slow = trace.period_counts(OBSERVATION_PERIOD);
        let sum = |v: &[PeriodSample]| -> (f64, f64) {
            (
                v.iter().map(|c| c.syn as f64).sum::<f64>() / v.len() as f64,
                v.iter().map(|c| c.synack as f64).sum::<f64>() / v.len() as f64,
            )
        };
        let (fs, fa) = sum(&fast);
        let (ss, sa) = sum(&slow[..fast.len()]);
        assert!((fs / ss - 1.0).abs() < 0.1, "syn means {fs} vs {ss}");
        assert!((fa / sa - 1.0).abs() < 0.1, "synack means {fa} vs {sa}");
    }

    #[test]
    fn trace_records_have_stub_sources_for_outbound() {
        let site = SiteProfile::unc();
        let mut rng = SimRng::seed_from_u64(3);
        let trace = site.generate_trace(&mut rng);
        assert!(!trace.is_empty());
        for r in trace.records().iter().take(5000) {
            match r.direction {
                Direction::Outbound => {
                    assert!(site.stub().contains(*r.src.ip()), "outbound src {}", r.src);
                    assert_ne!(r.src_mac, MacAddr::ZERO);
                }
                Direction::Inbound => {
                    assert!(!site.stub().contains(*r.src.ip()), "inbound src {}", r.src);
                }
            }
        }
    }

    #[test]
    fn bidirectional_site_has_inbound_syns() {
        let site = SiteProfile::harvard();
        let mut rng = SimRng::seed_from_u64(9);
        let trace = site.generate_trace(&mut rng);
        let inbound_syns = trace
            .records()
            .iter()
            .filter(|r| r.direction == Direction::Inbound && r.kind == SegmentKind::Syn)
            .count();
        let outbound_syns = trace
            .records()
            .iter()
            .filter(|r| r.direction == Direction::Outbound && r.kind == SegmentKind::Syn)
            .count();
        assert!(inbound_syns > 0, "bidirectional site must see inbound SYNs");
        assert!(
            outbound_syns > inbound_syns,
            "outbound still dominates at 30%"
        );
    }

    #[test]
    fn rehomed_profile_moves_stub_and_mac_namespace() {
        let stub: Ipv4Net = "128.7.0.0/16".parse().unwrap();
        let site = SiteProfile::auckland()
            .with_duration(SimDuration::from_secs(120))
            .rehomed(stub, 7);
        assert_eq!(site.stub(), stub);
        assert_eq!(site.periods(), 6);
        let mut rng = SimRng::seed_from_u64(13);
        let trace = site.generate_trace(&mut rng);
        for r in trace.records().iter().take(2000) {
            if r.direction == Direction::Outbound {
                assert!(stub.contains(*r.src.ip()), "outbound src {}", r.src);
                assert_ne!(r.src_mac, MacAddr::ZERO);
                // MACs come from the new namespace (net 7), not Auckland's.
                assert!(
                    r.src_mac.to_string().starts_with("02:00:07:"),
                    "mac {} not in namespace 7",
                    r.src_mac
                );
            }
        }
    }

    /// `PeriodBins` orders records as a stable sort by time of the push
    /// order does: over times on a coarse grid (many exact ties), a tail
    /// bin past the span wider than 20 s, one record far past the span
    /// (an offset of 41 bits), an empty bin and a one-record bin.
    #[test]
    fn period_bins_order_as_a_stable_sort_does() {
        let span = SimDuration::from_secs(100);
        let stub = SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 80);
        for seed in 0..8 {
            let mut rng = SimRng::seed_from_u64(seed);
            // 100 ms steps up to 90 s past the span, none in period 2.
            let mut times: Vec<u64> = (0..3000)
                .map(|_| rng.uniform_u64(0, 1900) * 100_000)
                .filter(|t| !(40_000_000..60_000_000).contains(t))
                .map(|t| {
                    if (60_000_000..80_000_000).contains(&t) {
                        140_000_000
                    } else {
                        t
                    }
                })
                .collect();
            times.insert(rng.uniform_u64(0, 3000) as usize % times.len(), 65_432_100);
            times.push(100_000_000 + (1 << 40));
            let records: Vec<TraceRecord> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let src = SocketAddrV4::new(Ipv4Addr::from(i as u32), i as u16);
                    TraceRecord::new(
                        SimTime::from_micros(t),
                        Direction::Outbound,
                        SegmentKind::Syn,
                        src,
                        stub,
                    )
                })
                .collect();
            let mut bins = PeriodBins::new(span);
            for record in &records {
                bins.push(*record);
            }
            assert_eq!(bins.bins[2].len(), 0, "period 2 is empty");
            assert_eq!(bins.bins[3].len(), 1, "period 3 holds one record");
            let mut expected = records.clone();
            expected.sort_by_key(|r| r.time);
            assert_eq!(bins.into_trace(span).records(), &expected[..]);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let site = SiteProfile::lbl();
        let a = site.generate_period_counts(&mut SimRng::seed_from_u64(5));
        let b = site.generate_period_counts(&mut SimRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn lbl_magnitudes_match_figure3a() {
        // Figure 3a: tens of packets per period, never hundreds.
        let mut rng = SimRng::seed_from_u64(21);
        let counts = SiteProfile::lbl().generate_period_counts(&mut rng);
        let mean: f64 = counts.iter().map(|c| c.syn as f64).sum::<f64>() / counts.len() as f64;
        assert!((8.0..30.0).contains(&mean), "LBL mean syn {mean}");
        assert!(counts.iter().all(|c| c.syn < 120), "LBL spike too large");
    }

    #[test]
    fn harvard_magnitudes_match_figure3b() {
        let mut rng = SimRng::seed_from_u64(22);
        let counts = SiteProfile::harvard().generate_period_counts(&mut rng);
        let mean: f64 = counts.iter().map(|c| c.synack as f64).sum::<f64>() / counts.len() as f64;
        assert!((250.0..650.0).contains(&mean), "Harvard mean synack {mean}");
    }
}
