//! Scripted multi-phase load plans for long-running operation.
//!
//! A [`LoadPlan`] is a cyclic script of named [`LoadPhase`]s in the
//! style of a k6 scenario file: each phase holds (or ramps) a *benign
//! scale* — a multiplier on a [`SiteProfile`]'s calibrated workload —
//! and an *attack rate* in SYN/s aimed at one victim. The serve daemon
//! asks the plan for one observation window of records at a time
//! ([`LoadPlan::window_records`]); because the plan wraps around after
//! its last phase, a few scripted lines describe days of simulated
//! operation: quiet baseline, diurnal ramps, a flood pulse, recovery.
//!
//! # Text format
//!
//! One phase per line; blank lines and `#` comments are skipped:
//!
//! ```text
//! # name   duration  benign-scale        attack SYN/s
//! phase warmup  300s  benign=1            attack=0
//! phase ramp    600s  benign=1..2         attack=0
//! phase flood   300s  benign=2            attack=0..40
//! phase calm    600s  benign=2..1         attack=0
//! ```
//!
//! `a..b` ramps linearly across the phase; a bare `a` holds steady.
//!
//! # Determinism
//!
//! Window generation is seeded per `(master seed, window index, copy)`
//! with a splitmix64-style mix, so window `n` of a plan is identical no
//! matter how many windows were generated before it or on which thread —
//! the same index-addressed determinism the fleet runner uses. Scaling
//! benign load never splits a handshake: thinning keeps or drops whole
//! flows by a hash of their endpoints, so SYNs stay paired with their
//! SYN/ACKs and the detector's normalized difference stays honest.

use std::net::SocketAddrV4;

use syndog_fingerprint::{FingerprintKey, QUIRK_SEQ_ZERO};
use syndog_net::MacAddr;
use syndog_sim::{SimDuration, SimRng, SimTime};

use crate::sites::SiteProfile;
use crate::trace::{Direction, TraceRecord};

/// The MAC the plan's attack SYNs carry — a single synthetic NIC, as a
/// flooding tool inside the stub would present.
pub fn attack_mac() -> MacAddr {
    MacAddr::for_host(0xffff, 0xdead)
}

/// The SYN fingerprint the plan's attack SYNs carry — one raw-socket
/// tool template (fixed TTL/window, optionless, zeroed sequence), in
/// contrast to the benign stream's per-host OS-stack mix.
pub fn attack_fingerprint() -> FingerprintKey {
    FingerprintKey::new(255, 512, 0, 0, QUIRK_SEQ_ZERO)
}

/// One phase of a [`LoadPlan`]: a duration plus linear ramps for the
/// benign scale and the attack rate.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPhase {
    /// Phase name (for status output; no semantics).
    pub name: String,
    /// How long the phase lasts within each cycle.
    pub duration: SimDuration,
    /// Benign workload multiplier at the phase start.
    pub benign_start: f64,
    /// Benign workload multiplier at the phase end.
    pub benign_end: f64,
    /// Attack SYN rate (SYN/s) at the phase start.
    pub attack_start: f64,
    /// Attack SYN rate (SYN/s) at the phase end.
    pub attack_end: f64,
}

impl LoadPhase {
    /// A steady phase: constant benign scale and attack rate throughout.
    pub(crate) fn steady(name: &str, duration: SimDuration, benign: f64, attack: f64) -> Self {
        LoadPhase {
            name: name.to_string(),
            duration,
            benign_start: benign,
            benign_end: benign,
            attack_start: attack,
            attack_end: attack,
        }
    }

    /// The `(benign scale, attack rate)` at `frac` ∈ [0, 1] through the
    /// phase, linearly interpolated.
    fn at(&self, frac: f64) -> (f64, f64) {
        let lerp = |a: f64, b: f64| a + (b - a) * frac.clamp(0.0, 1.0);
        (
            lerp(self.benign_start, self.benign_end),
            lerp(self.attack_start, self.attack_end),
        )
    }
}

/// A cyclic schedule of [`LoadPhase`]s driving one stub's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPlan {
    phases: Vec<LoadPhase>,
    attack_target: SocketAddrV4,
}

/// The victim the plan's attack phases aim at unless overridden — the
/// same well-known address the CLI's `inject` uses.
fn default_target() -> SocketAddrV4 {
    "199.0.0.80:80".parse().expect("static address")
}

impl LoadPlan {
    /// A plan over `phases`.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero duration — a
    /// cyclic plan must advance time every cycle.
    pub(crate) fn new(phases: Vec<LoadPhase>) -> Self {
        assert!(!phases.is_empty(), "a load plan needs at least one phase");
        assert!(
            phases.iter().all(|p| p.duration > SimDuration::ZERO),
            "zero-duration phases would freeze the cycle"
        );
        LoadPlan {
            phases,
            attack_target: default_target(),
        }
    }

    /// A one-phase plan holding the profile's calibrated load forever.
    pub fn steady_baseline() -> Self {
        LoadPlan::new(vec![LoadPhase::steady(
            "baseline",
            SimDuration::from_secs(3600),
            1.0,
            0.0,
        )])
    }

    /// Overrides the attack phases' victim address.
    #[must_use]
    pub fn with_attack_target(mut self, target: SocketAddrV4) -> Self {
        self.attack_target = target;
        self
    }

    /// The phases, in cycle order.
    pub fn phases(&self) -> &[LoadPhase] {
        &self.phases
    }

    /// One full cycle through every phase.
    pub fn cycle_duration(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// The `(phase index, benign scale, attack rate)` in force at `at`,
    /// wrapping past the last phase back to the first.
    pub(crate) fn at(&self, at: SimTime) -> (usize, f64, f64) {
        let cycle = self.cycle_duration().as_micros();
        let mut offset = (at - SimTime::ZERO).as_micros() % cycle;
        for (index, phase) in self.phases.iter().enumerate() {
            let len = phase.duration.as_micros();
            if offset < len {
                let frac = offset as f64 / len as f64;
                let (benign, attack) = phase.at(frac);
                return (index, benign, attack);
            }
            offset -= len;
        }
        unreachable!("offset is reduced modulo the cycle duration");
    }

    /// Generates the records for window `index` (the window spanning
    /// `[index·window, (index+1)·window)`), deterministically from
    /// `seed`: the same `(seed, index)` always yields the same records,
    /// independent of generation order. Records are time-sorted and lie
    /// strictly within the window, so closing one period per window can
    /// never miss or double-count an event.
    ///
    /// Benign load is the `profile`'s workload scaled by the plan:
    /// `ceil(scale)` independently seeded copies, each thinned per-flow
    /// to `scale / ceil(scale)`. The attack contribution is a constant-
    /// rate spoofed SYN stream at the rate in force mid-window.
    pub fn window_records(
        &self,
        profile: &SiteProfile,
        index: u64,
        window: SimDuration,
        seed: u64,
    ) -> Vec<TraceRecord> {
        let start = SimTime::ZERO + window * index;
        let mid = start + SimDuration::from_micros(window.as_micros() / 2);
        let (_, benign_scale, attack_rate) = self.at(mid);
        let mut records = Vec::new();

        // Benign: whole-flow thinning keeps handshakes paired.
        if benign_scale > 0.0 {
            let copies = benign_scale.ceil().max(1.0) as u64;
            let per_copy = benign_scale / copies as f64;
            let slice = profile.clone().with_duration(window);
            for copy in 0..copies {
                let mut rng = SimRng::seed_from_u64(mix(seed, index * 64 + copy));
                let salt = mix(seed ^ 0x5eed_f10a, copy);
                for record in slice.generate_trace(&mut rng).records() {
                    if record.time >= SimTime::ZERO + window {
                        continue; // retransmissions straggling past the window
                    }
                    if per_copy < 1.0 && !flow_kept(record, salt, per_copy) {
                        continue;
                    }
                    let mut shifted = *record;
                    shifted.time = start + (record.time - SimTime::ZERO);
                    records.push(shifted);
                }
            }
        }

        // Attack: evenly spaced spoofed SYNs with per-SYN jitter, all
        // from one synthetic NIC — the signature of a flooding tool.
        let syns = (attack_rate * window.as_secs_f64()).round() as u64;
        if syns > 0 {
            let mut rng = SimRng::seed_from_u64(mix(seed ^ 0xa77a_c4ed, index));
            let gap = window.as_secs_f64() / syns as f64;
            for i in 0..syns {
                let jitter = rng.uniform_range(0.0, gap * 0.9);
                let at = start + SimDuration::from_secs_f64(i as f64 * gap + jitter);
                let spoofed = SocketAddrV4::new(
                    std::net::Ipv4Addr::from(rng.next_u32() | 0x0100_0000),
                    1024 + (rng.next_u32() % 60000) as u16,
                );
                records.push(
                    TraceRecord::new(
                        at,
                        Direction::Outbound,
                        syndog_net::SegmentKind::Syn,
                        spoofed,
                        self.attack_target,
                    )
                    .with_mac(attack_mac())
                    .with_fp(attack_fingerprint().to_bits()),
                );
            }
        }

        records.sort_by_key(|r| r.time);
        records
    }

    /// Parses the text format (see the [module docs](crate::load)).
    ///
    /// # Errors
    ///
    /// Returns a line-numbered message for the first malformed line.
    pub fn parse(text: &str) -> Result<LoadPlan, String> {
        let mut phases = Vec::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            phases.push(parse_phase(line).map_err(|why| format!("line {}: {why}", number + 1))?);
        }
        if phases.is_empty() {
            return Err("plan has no phases".to_string());
        }
        if let Some(phase) = phases.iter().find(|p| p.duration == SimDuration::ZERO) {
            return Err(format!("phase {} has zero duration", phase.name));
        }
        Ok(LoadPlan::new(phases))
    }
}

/// `phase NAME <secs>s benign=<a>[..b] attack=<a>[..b]`
fn parse_phase(line: &str) -> Result<LoadPhase, String> {
    let mut words = line.split_whitespace();
    if words.next() != Some("phase") {
        return Err("expected `phase NAME <secs>s benign=… attack=…`".to_string());
    }
    let name = words.next().ok_or("missing phase name")?.to_string();
    let duration = words.next().ok_or("missing duration")?;
    let secs: f64 = duration
        .strip_suffix('s')
        .ok_or_else(|| format!("duration `{duration}` must end in `s`"))?
        .parse()
        .map_err(|_| format!("bad duration `{duration}`"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("bad duration `{duration}`"));
    }
    let mut benign = None;
    let mut attack = None;
    for word in words {
        if let Some(spec) = word.strip_prefix("benign=") {
            benign = Some(parse_ramp(spec)?);
        } else if let Some(spec) = word.strip_prefix("attack=") {
            attack = Some(parse_ramp(spec)?);
        } else {
            return Err(format!("unknown field `{word}`"));
        }
    }
    let (benign_start, benign_end) = benign.ok_or("missing benign=")?;
    let (attack_start, attack_end) = attack.ok_or("missing attack=")?;
    Ok(LoadPhase {
        name,
        duration: SimDuration::from_secs_f64(secs),
        benign_start,
        benign_end,
        attack_start,
        attack_end,
    })
}

/// `a` or `a..b`, both finite and non-negative.
fn parse_ramp(spec: &str) -> Result<(f64, f64), String> {
    let (a, b) = match spec.split_once("..") {
        Some((a, b)) => (a, b),
        None => (spec, spec),
    };
    let parse = |s: &str| -> Result<f64, String> {
        let v: f64 = s.parse().map_err(|_| format!("bad number `{s}`"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("value `{s}` must be finite and non-negative"));
        }
        Ok(v)
    };
    Ok((parse(a)?, parse(b)?))
}

/// splitmix64-style mix for index-addressed per-window seeds.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whole-flow coin flip: hash the connection's endpoints (stable across
/// every segment of the handshake) into [0, 1) and keep the flow iff it
/// lands under `p`.
fn flow_kept(record: &TraceRecord, salt: u64, p: f64) -> bool {
    let key = (u64::from(u32::from(*record.src.ip())) << 16)
        ^ u64::from(record.src.port())
        ^ (u64::from(u32::from(*record.dst.ip())) << 32)
        ^ (u64::from(record.dst.port()) << 48);
    let hash = mix(salt, key);
    ((hash >> 11) as f64 / (1u64 << 53) as f64) < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_net::SegmentKind;

    const T0: SimDuration = SimDuration::from_secs(20);

    fn flood_plan() -> LoadPlan {
        LoadPlan::new(vec![
            LoadPhase::steady("quiet", SimDuration::from_secs(100), 1.0, 0.0),
            LoadPhase {
                name: "pulse".to_string(),
                duration: SimDuration::from_secs(100),
                benign_start: 1.0,
                benign_end: 1.0,
                attack_start: 0.0,
                attack_end: 40.0,
            },
        ])
    }

    #[test]
    fn plan_wraps_cyclically_and_ramps_linearly() {
        let plan = flood_plan();
        assert_eq!(plan.cycle_duration(), SimDuration::from_secs(200));
        let (phase, benign, attack) = plan.at(SimTime::from_secs(50));
        assert_eq!((phase, benign, attack), (0, 1.0, 0.0));
        let (phase, _, attack) = plan.at(SimTime::from_secs(150));
        assert_eq!(phase, 1);
        assert!((attack - 20.0).abs() < 1e-9, "{attack}");
        // One full cycle later the schedule repeats.
        let (phase, _, attack) = plan.at(SimTime::from_secs(350));
        assert_eq!(phase, 1);
        assert!((attack - 20.0).abs() < 1e-9, "{attack}");
    }

    #[test]
    fn window_records_are_deterministic_sorted_and_in_window() {
        let plan = flood_plan();
        let profile = SiteProfile::lbl();
        for index in [0u64, 4, 7, 11] {
            let a = plan.window_records(&profile, index, T0, 42);
            let b = plan.window_records(&profile, index, T0, 42);
            assert_eq!(a, b, "window {index} not deterministic");
            let start = T0.as_secs_f64() * index as f64;
            let end = start + T0.as_secs_f64();
            for record in &a {
                let t = record.time.as_secs_f64();
                assert!(
                    t >= start && t < end,
                    "window {index}: {t} ∉ [{start},{end})"
                );
            }
            assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
        }
        // A different seed yields a different workload.
        assert_ne!(
            plan.window_records(&profile, 0, T0, 42),
            plan.window_records(&profile, 0, T0, 43)
        );
    }

    #[test]
    fn attack_windows_carry_the_attack_mac_at_the_scheduled_rate() {
        let plan = flood_plan();
        let profile = SiteProfile::lbl();
        // Window 9 spans [180, 200): mid-window t=190 is 90% through the
        // pulse phase ⇒ 36 SYN/s ⇒ 720 attack SYNs in 20 s.
        let records = plan.window_records(&profile, 9, T0, 7);
        let attack: Vec<_> = records
            .iter()
            .filter(|r| r.src_mac == attack_mac())
            .collect();
        assert_eq!(attack.len(), 720);
        assert!(attack
            .iter()
            .all(|r| r.kind == SegmentKind::Syn && r.dst == plan.attack_target));
        // Quiet windows have none.
        let quiet = plan.window_records(&profile, 0, T0, 7);
        assert!(quiet.iter().all(|r| r.src_mac != attack_mac()));
    }

    #[test]
    fn benign_scaling_preserves_handshake_pairing() {
        let plan = LoadPlan::new(vec![LoadPhase::steady(
            "heavy",
            SimDuration::from_secs(3600),
            3.0,
            0.0,
        )]);
        let profile = SiteProfile::lbl();
        let scaled = plan.window_records(&profile, 1, T0, 5);
        let baseline = LoadPlan::steady_baseline().window_records(&profile, 1, T0, 5);
        let syns = |records: &[TraceRecord]| {
            records
                .iter()
                .filter(|r| r.kind == SegmentKind::Syn)
                .count() as f64
        };
        let ratio = syns(&scaled) / syns(&baseline).max(1.0);
        assert!(
            (1.8..=4.5).contains(&ratio),
            "scale 3 produced ratio {ratio}"
        );
        // Every scaled SYN/ACK answers a SYN of the same flow: collect
        // flow endpoints per kind and require the SYN/ACK flows ⊆ SYN
        // flows (reversed endpoints).
        use std::collections::HashSet;
        let syn_flows: HashSet<_> = scaled
            .iter()
            .filter(|r| r.kind == SegmentKind::Syn)
            .map(|r| (r.src, r.dst))
            .collect();
        for record in scaled.iter().filter(|r| r.kind == SegmentKind::SynAck) {
            assert!(
                syn_flows.contains(&(record.dst, record.src)),
                "orphaned SYN/ACK {record:?}"
            );
        }
    }

    #[test]
    fn text_format_round_trips() {
        let text = "\
# soak schedule
phase warmup 300s benign=1 attack=0
phase ramp 600s benign=1..2 attack=0
phase flood 300s benign=2 attack=0..40
";
        let plan = LoadPlan::parse(text).unwrap();
        assert_eq!(plan.phases().len(), 3);
        assert_eq!(plan.phases()[1].benign_end, 2.0);
        assert_eq!(plan.phases()[2].attack_end, 40.0);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (bad, why) in [
            ("phase x 10 benign=1 attack=0", "must end in `s`"),
            ("phase x 10s benign=1", "missing attack="),
            ("phase x 10s benign=-1 attack=0", "non-negative"),
            ("stage x 10s benign=1 attack=0", "expected `phase"),
            ("phase x 0s benign=1 attack=0", "zero duration"),
            ("", "no phases"),
        ] {
            let err = LoadPlan::parse(bad).unwrap_err();
            assert!(err.contains(why), "`{bad}` → `{err}`");
        }
    }
}
