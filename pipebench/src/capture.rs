//! Workload inputs: the two UNC captures and the LBL fleet scenario.
//!
//! Everything here is a pure function of the seed, so the same seed
//! rebuilds byte-identical inputs.

use std::net::{Ipv4Addr, SocketAddrV4};

use syndog::SynDogConfig;
use syndog_attack::SynFlood;
use syndog_fingerprint::os_mix;
use syndog_net::SegmentKind;
use syndog_router::{MitigationPolicy, Scenario};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::load::attack_fingerprint;
use syndog_traffic::{Direction, SiteProfile, Trace, TraceRecord};

use crate::laps::{Laps, Marked};

/// How big a capture is: the traffic span its flood or surge window is
/// laid out on, and the frame count it is cut to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureSize {
    /// Nominal span; the event window is its second sixth.
    pub span: SimDuration,
    /// Frames kept, from the start.
    pub frames: usize,
}

/// About an hour of UNC traffic. Cutting to a fixed frame count keeps the
/// input the same size for every seed: an hour of UNC holds 2.27–2.57 M
/// frames depending on the seed.
pub const FULL_CAPTURE: CaptureSize = CaptureSize {
    span: SimDuration::from_secs(3600),
    frames: 2_400_000,
};
/// About two minutes, for `--quick`.
pub const QUICK_CAPTURE: CaptureSize = CaptureSize {
    span: SimDuration::from_secs(120),
    frames: 75_000,
};
/// Rate of the tool-fingerprinted flood, in SYN/s (UNC's `f_min` is ≈ 37).
pub const FLOOD_RATE: f64 = 80.0;
/// The flash crowd's connection rate as a multiple of the site's own.
pub const SURGE_MULTIPLIER: f64 = 2.0;
/// Host namespace the surge draws OS fingerprints from (the UNC profile's).
const SURGE_SITE_ID: u16 = 2;
/// Stubs in the full-size fleet.
pub const FLEET_STUBS: usize = 4000;
/// Stubs in the `--quick` fleet.
pub const QUICK_FLEET_STUBS: usize = 40;
/// Every this-many-th fleet stub hosts a slave of the distributed flood.
pub const SLAVE_EVERY: usize = 20;
/// Per-slave flood rate, in SYN/s.
pub const SLAVE_RATE: f64 = 6.0;
/// When the fleet's distributed flood starts.
const FLEET_ATTACK_START_SECS: u64 = 600;

/// The victim every flood and surge targets; it lies outside every stub.
pub fn victim() -> SocketAddrV4 {
    SocketAddrV4::new(Ipv4Addr::new(199, 0, 0, 80), 80)
}

/// The UNC profile stretched to `span`.
pub fn unc(span: SimDuration) -> SiteProfile {
    SiteProfile::unc().with_duration(span)
}

/// The flood or surge window of a capture: it starts a sixth of the way in
/// and lasts a sixth of the span (t = 600 s for 600 s in the full capture).
pub fn event_window(span: SimDuration) -> (SimTime, SimDuration) {
    let sixth = SimDuration::from_micros(span.as_micros() / 6);
    (SimTime::ZERO + sixth, sixth)
}

/// UNC background plus a constant [`FLOOD_RATE`] flood whose SYNs carry
/// the canonical attack-tool fingerprint (what `syndog inject` plants).
pub fn flood_trace(seed: u64, size: CaptureSize) -> Trace {
    let (site, mut rng) = background(seed, size);
    let mut trace = site.generate_trace(&mut rng);
    let (start, length) = event_window(size.span);
    let flood = SynFlood::constant(FLOOD_RATE, start, length, victim())
        .with_fp(attack_fingerprint().to_bits());
    trace.merge(&flood.generate_trace(&mut rng));
    cut(&trace, size.frames)
}

/// UNC background plus a [`SURGE_MULTIPLIER`]× flash crowd (see [`surge`]).
pub fn flash_crowd_trace(seed: u64, size: CaptureSize) -> Trace {
    let (site, mut rng) = background(seed, size);
    let mut trace = site.generate_trace(&mut rng);
    let (start, length) = event_window(size.span);
    trace.merge(&surge(&site, start, length, SURGE_MULTIPLIER, &mut rng));
    cut(&trace, size.frames)
}

/// The UNC profile generating a sixth more than the nominal span, so that
/// every seed reaches the frame count, and the seeded generator.
fn background(seed: u64, size: CaptureSize) -> (SiteProfile, SimRng) {
    let generated = SimDuration::from_micros(size.span.as_micros() / 6 * 7);
    (unc(generated), SimRng::seed_from_u64(seed))
}

/// The first `frames` records of `trace` (all of them if it holds fewer),
/// spanning to the last one kept: the span pcap import infers.
fn cut(trace: &Trace, frames: usize) -> Trace {
    let records = &trace.records()[..frames.min(trace.len())];
    let end = records.last().map_or(SimDuration::ZERO, |r| {
        r.time.saturating_since(SimTime::ZERO)
    });
    Trace::from_records(records.to_vec(), end + SimDuration::from_micros(1))
}

/// A flash crowd: legitimate connections at `multiplier` times the site's
/// rate, uniformly spread over `[start, start + length)`, from hosts all
/// over the stub. Each connection completes its handshake: an outbound SYN
/// carrying the host's OS fingerprint, the victim's inbound SYN/ACK, and
/// the outbound ACK.
///
/// The SYN/ACK is addressed victim → host. Pcap import infers direction
/// from the destination address, so an answer addressed to the victim
/// would come back from a round trip as outbound, and the crowd would look
/// unanswered.
pub fn surge(
    site: &SiteProfile,
    start: SimTime,
    length: SimDuration,
    multiplier: f64,
    rng: &mut SimRng,
) -> Trace {
    let window = length.as_secs_f64();
    let connections = (multiplier * site.mean_arrival_rate() * window) as u64;
    let mut records = Vec::with_capacity(3 * connections as usize);
    for i in 0..connections {
        let t = start + SimDuration::from_secs_f64(rng.uniform_range(0.0, window));
        let host = rng.uniform_u64(2, u64::from(site.stub_hosts())) as u32;
        let client = SocketAddrV4::new(site.stub().host(host), 1024 + (i % 60_000) as u16);
        let at = |dt: f64| t + SimDuration::from_secs_f64(dt);
        let fp = os_mix::for_host(SURGE_SITE_ID, host).to_bits();
        records.push(
            TraceRecord::new(
                at(0.0),
                Direction::Outbound,
                SegmentKind::Syn,
                client,
                victim(),
            )
            .with_fp(fp),
        );
        records.push(TraceRecord::new(
            at(0.05),
            Direction::Inbound,
            SegmentKind::SynAck,
            victim(),
            client,
        ));
        records.push(TraceRecord::new(
            at(0.1),
            Direction::Outbound,
            SegmentKind::Ack,
            client,
            victim(),
        ));
    }
    Trace::from_records(records, start.saturating_since(SimTime::ZERO) + length)
}

/// Exports a trace as pcap bytes held in memory, marking a lap on `laps`
/// every [`crate::laps::MARK_BYTES`] written.
pub fn to_pcap(trace: &Trace, laps: &mut Laps) -> Vec<u8> {
    // Synthesized frames are 54–66 bytes plus a 16-byte record header.
    let mut bytes = Vec::with_capacity(24 + trace.len() * 80);
    trace
        .write_pcap(Marked::new(&mut bytes, laps))
        .expect("writing pcap into memory cannot fail");
    bytes
}

/// The LBL fleet: `stubs` one-hour LBL stubs, every [`SLAVE_EVERY`]th one
/// hosting a [`SLAVE_RATE`] SYN/s slave of a distributed flood, with
/// mitigation armed on every agent.
pub fn fleet_scenario(seed: u64, stubs: usize) -> Scenario {
    let attacked: Vec<usize> = (0..stubs).step_by(SLAVE_EVERY).collect();
    Scenario::distributed_flood(
        "lbl-fleet-counts",
        &SiteProfile::lbl(),
        stubs,
        &attacked,
        SLAVE_RATE * attacked.len() as f64,
        SimTime::from_secs(FLEET_ATTACK_START_SECS),
        victim(),
        SynDogConfig::paper_default(),
        seed,
    )
    .with_mitigation(MitigationPolicy::paper_default())
}
