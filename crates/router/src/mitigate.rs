//! Source-end mitigation: alarm → keyed SYN throttle → hysteresis release.
//!
//! The paper's central argument (§1, §6) is that detecting at the *source's*
//! leaf router is what makes countermeasures cheap: an alarm already names
//! the stub, and §4.2.3 localization names the suspect MAC, so the router
//! can rate-limit the flood before it ever reaches the Internet — no
//! per-connection state at the victim required. [`MitigationEngine`] closes
//! that detect→act loop:
//!
//! * **Engage** — when the CUSUM crosses the flooding threshold `N`, the
//!   engine arms the [`SourceLocator`] and installs keyed token-bucket SYN
//!   limiters. The primary key is the dominant suspect's MAC
//!   ([`ThrottleKey::Mac`]); spoofed-source SYNs not attributable to a
//!   dominant MAC fall back to per-/24 prefix keys
//!   ([`ThrottleKey::Prefix`]). Buckets are sized from the stub's own
//!   calibrated `K̄` at engagement (`BUCKET_FRACTION`),
//!   so the same policy adapts from LBL-scale to UNC-scale stubs.
//! * **Throttle** — while engaged, every outbound SYN that maps to an
//!   installed key must win a token; everything else forwards untouched.
//!   Every decision is accounted in [`MitigationStats`], including
//!   *collateral damage*: legitimate (in-stub-sourced) SYNs dropped while
//!   mitigating.
//! * **Release** — via hysteresis: the engine tracks a threshold-clamped
//!   copy of the CUSUM recursion (`gate`), and releases after the gate has
//!   stayed below `N` for `RELEASE_PERIODS` (`M`) consecutive
//!   periods. The clamp matters: the detector's own `y_n` is unbounded (it
//!   keeps climbing for as long as a flood runs, which is what makes its
//!   detection delay optimal) and would take `y_peak / (a − c)` periods to
//!   drain after the attack ends. The clamped gate crosses `N` at exactly
//!   the same period on the way up, but drains from at most `N` on the way
//!   down — so throttles release within `M (+1)` periods of the attack
//!   actually ending, instead of hours later.
//!
//! One ordering rule keeps engage/release stable: the detector observes the
//! *offered* (pre-throttle) load — [`crate::agent::SynDogAgent::filter_record`]
//! counts the record before the engine decides its fate. If the detector saw
//! only forwarded traffic, throttling would drain the very statistic that
//! justifies it and the engine would oscillate between engage and release
//! mid-attack.
//!
//! Determinism: token buckets refill from simulated record timestamps, the
//! key table is a `BTreeMap`, and nothing here consumes randomness or wall
//! clocks — so fleet runs with mitigation stay byte-identical across
//! `--jobs` worker counts, and [`MitigationState`] snapshots round-trip
//! through the [`crate::checkpoint::Checkpoint`] envelope exactly.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::mem::size_of;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};
use syndog::{Detection, SynDogConfig};
use syndog_fingerprint::{FingerprintKey, FingerprintTable};
use syndog_net::{Ipv4Net, MacAddr, SegmentKind};
use syndog_sim::SimTime;
use syndog_traffic::{Direction, TraceRecord};

use crate::locate::{MacActivity, SourceLocator, Suspect};

/// Which key family the engine installs throttle buckets under — the
/// `--throttle-key` CLI knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyMode {
    /// Dominant-suspect MAC first, spoofed-source /24 as fallback — the
    /// default, and what §4.2.3's localization implies. Legitimate traffic
    /// is never keyed, but an attacker forging a fresh MAC per packet
    /// denies the engine a dominant suspect and degrades it to prefixes.
    Mac,
    /// Every outbound SYN keyed by its source /24. Simple and
    /// suspect-free, but a rotating-spoofed-prefix flood meets a fresh
    /// full bucket per /24, and busy legitimate /24s share buckets with
    /// nobody — their own volume exhausts the allowance (collateral).
    Prefix,
    /// Only SYNs bearing the dominant attack fingerprint (the spoofed
    /// stream's packed header template, per [`SourceLocator::dominant_fingerprint`])
    /// are keyed. Immune to both MAC and prefix rotation — the tool's
    /// header template travels with every packet — and legitimate SYNs
    /// carry OS-stack fingerprints that never match, so collateral is
    /// structurally zero.
    Fingerprint,
}

impl KeyMode {
    /// Every key mode, in CLI listing order.
    pub const ALL: [KeyMode; 3] = [KeyMode::Mac, KeyMode::Prefix, KeyMode::Fingerprint];

    /// The stable lowercase name (`--throttle-key` value).
    pub fn name(&self) -> &'static str {
        match self {
            KeyMode::Mac => "mac",
            KeyMode::Prefix => "prefix",
            KeyMode::Fingerprint => "fingerprint",
        }
    }
}

impl std::str::FromStr for KeyMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        KeyMode::ALL
            .into_iter()
            .find(|mode| mode.name() == s)
            .ok_or_else(|| format!("unknown throttle key `{s}` (want mac, prefix or fingerprint)"))
    }
}

impl fmt::Display for KeyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-key SYN allowance per observation period, as a fraction of the
/// calibrated `K̄` at engagement. `K̄` is the stub's expected SYN/ACK
/// volume per period, so a throttled key may emit at most 5% of the stub's
/// normal handshake volume.
const BUCKET_FRACTION: f64 = 0.05;

/// Floor on the per-period allowance, so a key on a nearly idle stub (`K̄`
/// clamps at 1.0) is never starved to zero tokens.
const MIN_TOKENS_PER_PERIOD: f64 = 1.0;

/// `M`: consecutive periods the release gate must stay below the flooding
/// threshold before throttles release.
const RELEASE_PERIODS: u32 = 3;

/// Minimum spoofed-SYN share before a MAC becomes a throttle key; below it
/// the engine falls back to /24 prefix keys. The same bound gates the
/// dominant attack fingerprint in [`KeyMode::Fingerprint`].
const SUSPECT_MIN_SHARE: f64 = 0.5;

/// Tuning knobs for the source-end mitigation subsystem.
///
/// Construct via [`MitigationPolicy::paper_default`] and adjust with the
/// builder methods.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MitigationPolicy {
    /// The key family throttle buckets are installed under.
    pub key_mode: KeyMode,
    /// Flash-crowd exoneration: minimum Shannon entropy (bits) of the
    /// just-closed period's SYN fingerprint mix for the surge to look like
    /// a crowd of real OS stacks rather than one tool's template.
    pub exoneration_entropy_bits: f64,
    /// Flash-crowd exoneration: minimum SYN/ACK-to-SYN ratio in the
    /// just-closed period — a crowd's handshakes complete; a spoofed
    /// flood's never do.
    pub exoneration_synack_ratio: f64,
}

impl MitigationPolicy {
    /// Defaults: throttles keyed on the prime suspect's MAC, and the
    /// flash-crowd exoneration thresholds below. (The bucket size, burst,
    /// `M = 3` release periods and the simple-majority suspect rule the
    /// localization experiments use are fixed.)
    pub fn paper_default() -> Self {
        MitigationPolicy {
            key_mode: KeyMode::Mac,
            // A realistic OS mix carries ~2 bits of fingerprint entropy;
            // a tool's template carries ~0. 1.5 splits them with margin.
            exoneration_entropy_bits: 1.5,
            exoneration_synack_ratio: 0.6,
        }
    }

    /// Returns a copy throttling under a different key family.
    pub fn with_key_mode(mut self, mode: KeyMode) -> Self {
        self.key_mode = mode;
        self
    }

    /// Returns a copy with different flash-crowd exoneration thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless both thresholds are finite and non-negative.
    pub fn with_exoneration(mut self, entropy_bits: f64, synack_ratio: f64) -> Self {
        assert!(
            entropy_bits >= 0.0 && entropy_bits.is_finite(),
            "exoneration entropy must be finite and non-negative, got {entropy_bits}"
        );
        assert!(
            synack_ratio >= 0.0 && synack_ratio.is_finite(),
            "exoneration SYN/ACK ratio must be finite and non-negative, got {synack_ratio}"
        );
        self.exoneration_entropy_bits = entropy_bits;
        self.exoneration_synack_ratio = synack_ratio;
        self
    }
}

impl Default for MitigationPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// What a throttle bucket is keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ThrottleKey {
    /// A suspect host, pinned by its MAC address (§4.2.3 localization).
    Mac(MacAddr),
    /// The /24 containing a spoofed source address — the fallback when no
    /// single MAC dominates the spoofed traffic. Always stores the /24
    /// network address.
    Prefix(Ipv4Addr),
    /// A packed SYN header fingerprint ([`FingerprintKey::to_bits`]) —
    /// [`KeyMode::Fingerprint`] keys the dominant attack template itself,
    /// so rotating source MACs or spoofed prefixes never escapes the
    /// bucket.
    Fingerprint(u64),
}

impl ThrottleKey {
    /// The /24 prefix key covering a spoofed source address.
    pub fn for_spoofed_source(src: Ipv4Addr) -> Self {
        ThrottleKey::Prefix(Ipv4Addr::from(u32::from(src) & 0xffff_ff00))
    }
}

impl fmt::Display for ThrottleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThrottleKey::Mac(mac) => write!(f, "mac:{mac}"),
            ThrottleKey::Prefix(net) => write!(f, "net:{net}/24"),
            ThrottleKey::Fingerprint(bits) => {
                write!(f, "fp:{}", FingerprintKey::from_bits(*bits))
            }
        }
    }
}

/// A deterministic token bucket driven by simulated time.
///
/// Refill is computed from record timestamps (never wall clocks) so the
/// admit/deny stream is a pure function of the trace — byte-stable across
/// worker counts and checkpoint restores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    last_refill_micros: u64,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` and `refill_per_sec` are positive and
    /// finite.
    pub fn new(capacity: f64, refill_per_sec: f64, now: SimTime) -> Self {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "bucket capacity must be positive and finite, got {capacity}"
        );
        assert!(
            refill_per_sec > 0.0 && refill_per_sec.is_finite(),
            "refill rate must be positive and finite, got {refill_per_sec}"
        );
        TokenBucket {
            capacity,
            refill_per_sec,
            tokens: capacity,
            last_refill_micros: now.as_micros(),
        }
    }

    /// The bucket's capacity (its burst allowance).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Refills for elapsed simulated time, then admits (consuming one
    /// token) or denies. Out-of-order timestamps refill nothing but still
    /// draw from the bucket.
    pub fn admit(&mut self, now: SimTime) -> bool {
        let now = now.as_micros();
        if now > self.last_refill_micros {
            let elapsed_secs = (now - self.last_refill_micros) as f64 / 1_000_000.0;
            self.tokens = (self.tokens + elapsed_secs * self.refill_per_sec).min(self.capacity);
            self.last_refill_micros = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The verdict for one outbound SYN while mitigation is engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationDecision {
    /// Forward the segment unchanged (also returned for every record while
    /// mitigation is disengaged, and for non-SYN traffic always).
    Forward,
    /// Drop the segment; the key whose bucket ran dry.
    Throttle(ThrottleKey),
}

impl MitigationDecision {
    /// Whether the record is forwarded toward the Internet.
    pub fn forwarded(&self) -> bool {
        matches!(self, MitigationDecision::Forward)
    }
}

/// Lifetime accounting of every mitigation decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MitigationStats {
    /// Times throttling engaged (gate crossed the threshold).
    pub engagements: u64,
    /// Times throttling released (hysteresis satisfied).
    pub releases: u64,
    /// Observation periods closed while engaged.
    pub engaged_periods: u64,
    /// Outbound SYNs dropped by a keyed bucket.
    pub throttled_syns: u64,
    /// Outbound SYNs inspected while engaged and forwarded.
    pub passed_syns: u64,
    /// Collateral damage: *legitimate* (in-stub-sourced) SYNs dropped
    /// while mitigating.
    pub collateral_syns: u64,
    /// Spoofed-source SYNs offered while engaged (attack pressure).
    pub attack_syns_offered: u64,
    /// Spoofed-source SYNs that still got through (bucket allowance).
    pub attack_syns_forwarded: u64,
    /// Would-be engagements suppressed by flash-crowd exoneration: the
    /// gate crossed the threshold, but the period's SYN fingerprint mix
    /// was diverse and its handshakes were completing, so no throttles
    /// were installed.
    pub exonerated_periods: u64,
}

impl MitigationStats {
    /// Fraction of offered attack SYNs that were dropped, if any attack
    /// traffic was offered.
    pub fn attack_drop_fraction(&self) -> Option<f64> {
        (self.attack_syns_offered > 0)
            .then(|| 1.0 - self.attack_syns_forwarded as f64 / self.attack_syns_offered as f64)
    }
}

/// One installed throttle bucket, for state snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketEntry {
    /// What the bucket is keyed on.
    pub key: ThrottleKey,
    /// The bucket itself.
    pub bucket: TokenBucket,
}

/// Serializable engagement state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngagementState {
    /// Per-key allowance per period, frozen from `K̄` at engagement.
    pub allowance: f64,
    /// Installed buckets, sorted by key.
    pub buckets: Vec<BucketEntry>,
}

/// One MAC's localization tally, for state snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacTally {
    /// The hardware address.
    pub mac: MacAddr,
    /// Spoofed-source SYNs attributed to it.
    pub spoofed_syns: u64,
    /// Legitimate in-stub SYNs attributed to it.
    pub legitimate_syns: u64,
}

/// A frozen suspect verdict, for state snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuspectState {
    /// The suspected flooding host.
    pub mac: MacAddr,
    /// Its spoofed-SYN tally when last refreshed.
    pub spoofed_syns: u64,
    /// Its share of all spoofed SYNs when last refreshed.
    pub share: f64,
}

/// The complete serializable state of a [`MitigationEngine`]; round-trips
/// through the [`crate::checkpoint::Checkpoint`] envelope.
///
/// Fingerprint tables travel as `(packed_key, count)` pairs sorted by
/// key; the JSON layer round-trips `u64` exactly, so packed keys with
/// high quirk bits survive unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigationState {
    /// The policy the engine runs with.
    pub policy: MitigationPolicy,
    /// CUSUM offset `a` (copied from the detector config).
    pub offset: f64,
    /// Flooding threshold `N` (copied from the detector config).
    pub threshold: f64,
    /// Observation period length in seconds.
    pub period_secs: f64,
    /// The stub prefix, as text.
    pub stub: String,
    /// Whether the locator was armed.
    pub armed: bool,
    /// Locator tallies, sorted by MAC.
    pub activity: Vec<MacTally>,
    /// Active engagement, if throttling was on.
    pub engagement: Option<EngagementState>,
    /// The threshold-clamped release gate.
    pub gate: f64,
    /// Consecutive below-threshold periods while engaged.
    pub calm_streak: u32,
    /// Last refreshed suspect verdict.
    pub suspect: Option<SuspectState>,
    /// Decision accounting.
    pub stats: MitigationStats,
    /// Absolute period of the last engagement.
    pub engaged_at: Option<u64>,
    /// Absolute period of the last release.
    pub released_at: Option<u64>,
    /// Lifetime outbound-SYN fingerprint tallies, as `(key, count)`.
    pub syn_fps: Vec<(u64, u64)>,
    /// The open period's fingerprint tallies (the exoneration window).
    pub period_fps: Vec<(u64, u64)>,
    /// The armed locator's spoofed-SYN fingerprint tallies.
    pub attack_fps: Vec<(u64, u64)>,
    /// Outbound SYNs seen in the open period.
    pub window_syn: u64,
    /// Inbound SYN/ACKs seen in the open period.
    pub window_synack: u64,
}

/// Runtime engagement state: the frozen allowance plus the keyed buckets.
#[derive(Debug, Clone, PartialEq)]
struct Engagement {
    allowance: f64,
    buckets: BTreeMap<ThrottleKey, TokenBucket>,
}

/// The detect→act loop for one leaf router: consumes the detector's
/// per-period [`Detection`]s to engage and release, and judges every
/// outbound SYN while engaged. See the module docs for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationEngine {
    policy: MitigationPolicy,
    offset: f64,
    threshold: f64,
    period_secs: f64,
    locator: SourceLocator,
    engagement: Option<Engagement>,
    gate: f64,
    calm_streak: u32,
    suspect: Option<Suspect>,
    stats: MitigationStats,
    engaged_at: Option<u64>,
    released_at: Option<u64>,
    /// Lifetime fingerprint tallies of every outbound SYN processed —
    /// the stub's OS-mix census, published as `syndog_fingerprint_*`.
    syn_fps: FingerprintTable,
    /// The open period's fingerprint tallies; the flash-crowd exoneration
    /// test reads it at a would-be engagement, and it resets at every
    /// period close.
    period_fps: FingerprintTable,
    /// Outbound SYNs in the open period (exoneration denominator).
    window_syn: u64,
    /// Inbound SYN/ACKs in the open period (exoneration numerator).
    window_synack: u64,
}

impl MitigationEngine {
    /// Creates a disengaged engine for a stub network, taking the CUSUM
    /// offset, threshold and period length from the detector config.
    pub fn new(stub: Ipv4Net, config: &SynDogConfig, policy: MitigationPolicy) -> Self {
        MitigationEngine {
            policy,
            offset: config.offset,
            threshold: config.threshold,
            period_secs: config.observation_period_secs,
            locator: SourceLocator::new(stub),
            engagement: None,
            gate: 0.0,
            calm_streak: 0,
            suspect: None,
            stats: MitigationStats::default(),
            engaged_at: None,
            released_at: None,
            syn_fps: FingerprintTable::new(),
            period_fps: FingerprintTable::new(),
            window_syn: 0,
            window_synack: 0,
        }
    }

    /// The policy this engine runs with.
    pub fn policy(&self) -> MitigationPolicy {
        self.policy
    }

    /// Whether throttling is currently on.
    pub fn is_engaged(&self) -> bool {
        self.engagement.is_some()
    }

    /// The per-key per-period allowance, while engaged.
    pub fn allowance(&self) -> Option<f64> {
        self.engagement.as_ref().map(|e| e.allowance)
    }

    /// Installed throttle keys, sorted.
    pub fn keys(&self) -> Vec<ThrottleKey> {
        self.engagement
            .as_ref()
            .map(|e| e.buckets.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Decision accounting so far.
    pub fn stats(&self) -> &MitigationStats {
        &self.stats
    }

    /// The most recently refreshed dominant suspect, if localization found
    /// one while engaged. Survives release.
    pub fn suspect(&self) -> Option<&Suspect> {
        self.suspect.as_ref()
    }

    /// Absolute period of the most recent engagement.
    pub fn engaged_at(&self) -> Option<u64> {
        self.engaged_at
    }

    /// Absolute period of the most recent release.
    pub fn released_at(&self) -> Option<u64> {
        self.released_at
    }

    /// The threshold-clamped release gate (see the module docs).
    pub fn gate(&self) -> f64 {
        self.gate
    }

    /// The engine's localization view.
    pub fn locator(&self) -> &SourceLocator {
        &self.locator
    }

    /// Lifetime fingerprint tallies of every outbound SYN this engine has
    /// processed — the stub's observed OS mix plus any tool templates.
    pub fn fingerprints(&self) -> &FingerprintTable {
        &self.syn_fps
    }

    /// The dominant attack fingerprint the armed locator has attributed,
    /// gated by `SUSPECT_MIN_SHARE` — what
    /// [`KeyMode::Fingerprint`] keys buckets on.
    pub fn suspect_fingerprint(&self) -> Option<(FingerprintKey, f64)> {
        self.locator.dominant_fingerprint(SUSPECT_MIN_SHARE)
    }

    /// Approximate resident memory of the mitigation state: the engine,
    /// its keyed buckets, and the locator's per-MAC tallies. This is the
    /// number the `mitigation` experiment compares against the victim-side
    /// defenses' per-connection state.
    pub fn state_bytes(&self) -> usize {
        let buckets = self.engagement.as_ref().map_or(0, |e| {
            e.buckets.len() * size_of::<(ThrottleKey, TokenBucket)>()
        });
        let tallies = self.locator.activity().len() * size_of::<(MacAddr, MacActivity)>();
        size_of::<Self>() + buckets + tallies
    }

    /// Consumes one period's detection record: advances the release gate,
    /// engages on an upward threshold crossing, counts down the hysteresis
    /// and releases. `absolute_period` is the router-time period index
    /// (`period_base + detection.period`).
    pub fn on_detection(&mut self, detection: &Detection, absolute_period: u64) {
        let x_tilde = if detection.x.is_finite() {
            detection.x - self.offset
        } else {
            0.0
        };
        self.gate = (self.gate + x_tilde).clamp(0.0, self.threshold);
        if self.engagement.is_some() {
            self.stats.engaged_periods += 1;
            if let Some(suspect) = self.locator.prime_suspect(SUSPECT_MIN_SHARE) {
                self.suspect = Some(suspect);
            }
            if self.gate < self.threshold {
                self.calm_streak += 1;
                if self.calm_streak >= RELEASE_PERIODS {
                    self.release(absolute_period);
                }
            } else {
                self.calm_streak = 0;
            }
        } else if self.gate >= self.threshold {
            if self.flash_crowd() {
                // A flash crowd trips the same SYN-surge statistic a flood
                // does, but its SYNs carry a diverse OS-stack fingerprint
                // mix and its handshakes complete. Suppress the
                // engagement; the gate stays at the threshold, so every
                // subsequent surge period re-takes this test — the moment
                // the traffic starts looking like a tool, throttles go in.
                self.stats.exonerated_periods += 1;
            } else {
                self.engage(detection, absolute_period);
            }
        }
        // Close the period's exoneration window; the next period
        // accumulates fresh evidence.
        self.period_fps.clear();
        self.window_syn = 0;
        self.window_synack = 0;
    }

    /// The flash-crowd test, evaluated at a would-be engagement over the
    /// just-closed period. Count-level runs (no per-record stream, so no
    /// fingerprint window) never exonerate — they engage exactly as
    /// before.
    fn flash_crowd(&self) -> bool {
        if self.window_syn == 0 || self.period_fps.is_empty() {
            return false;
        }
        let synack_ratio = self.window_synack as f64 / self.window_syn as f64;
        self.period_fps.entropy_bits() >= self.policy.exoneration_entropy_bits
            && synack_ratio >= self.policy.exoneration_synack_ratio
    }

    fn engage(&mut self, detection: &Detection, absolute_period: u64) {
        let allowance = (BUCKET_FRACTION * detection.k_average).max(MIN_TOKENS_PER_PERIOD);
        self.engagement = Some(Engagement {
            allowance,
            buckets: BTreeMap::new(),
        });
        self.locator.arm();
        self.calm_streak = 0;
        self.stats.engagements += 1;
        self.engaged_at = Some(absolute_period);
    }

    fn release(&mut self, absolute_period: u64) {
        self.engagement = None;
        self.locator.disarm();
        self.calm_streak = 0;
        self.stats.releases += 1;
        self.released_at = Some(absolute_period);
    }

    /// Judges one record. Fingerprint bookkeeping (the per-period
    /// exoneration window and the lifetime OS-mix census) runs on every
    /// record, engaged or not — the flash-crowd test at an engagement
    /// needs the evidence from *before* any throttle exists. While
    /// engaged this additionally feeds the locator, picks the record's
    /// throttle key per [`MitigationPolicy::key_mode`], and draws a
    /// token. Disengaged, the verdict is always
    /// `MitigationDecision::Forward`.
    pub fn process(&mut self, record: &TraceRecord) -> MitigationDecision {
        let outbound_syn =
            record.direction == Direction::Outbound && record.kind == SegmentKind::Syn;
        let inbound_synack =
            record.direction == Direction::Inbound && record.kind == SegmentKind::SynAck;
        self.window_syn += u64::from(outbound_syn);
        self.window_synack += u64::from(inbound_synack);
        if !outbound_syn {
            return MitigationDecision::Forward;
        }
        if record.fp != 0 {
            self.syn_fps.observe_bits(record.fp);
            self.period_fps.observe_bits(record.fp);
        }
        if self.engagement.is_none() {
            return MitigationDecision::Forward;
        }
        self.locator.observe_syn(record);
        let spoofed = self.locator.is_spoofed_source(*record.src.ip());
        if spoofed {
            self.stats.attack_syns_offered += 1;
        }
        let key = match self.policy.key_mode {
            KeyMode::Mac => {
                let engagement = self.engagement.as_ref().expect("engagement checked above");
                let mac_key = ThrottleKey::Mac(record.src_mac);
                if engagement.buckets.contains_key(&mac_key)
                    || self
                        .locator
                        .prime_suspect(SUSPECT_MIN_SHARE)
                        .is_some_and(|s| s.mac == record.src_mac)
                {
                    Some(mac_key)
                } else if spoofed {
                    Some(ThrottleKey::for_spoofed_source(*record.src.ip()))
                } else {
                    None
                }
            }
            // Suspect-free: every outbound SYN is keyed by its /24,
            // legitimate traffic included — that shared fate is exactly
            // the collateral the mitigation experiment measures.
            KeyMode::Prefix => Some(ThrottleKey::for_spoofed_source(*record.src.ip())),
            // Only SYNs carrying the dominant attack template are keyed;
            // everything else (OS-stack fingerprints, unfingerprinted
            // records) forwards untouched.
            KeyMode::Fingerprint => (record.fp != 0
                && self
                    .suspect_fingerprint()
                    .is_some_and(|(fp, _)| fp.to_bits() == record.fp))
            .then_some(ThrottleKey::Fingerprint(record.fp)),
        };
        let Some(key) = key else {
            self.stats.passed_syns += 1;
            return MitigationDecision::Forward;
        };
        let engagement = self.engagement.as_mut().expect("engagement checked above");
        let allowance = engagement.allowance;
        let refill = allowance / self.period_secs;
        // Buckets hold one period's allowance and start full, so that is
        // also the burst a fresh key may emit before refill-rate limiting
        // takes over.
        let capacity = allowance.max(1.0);
        let bucket = engagement
            .buckets
            .entry(key)
            .or_insert_with(|| TokenBucket::new(capacity, refill, record.time));
        if bucket.admit(record.time) {
            self.stats.passed_syns += 1;
            if spoofed {
                self.stats.attack_syns_forwarded += 1;
            }
            MitigationDecision::Forward
        } else {
            self.stats.throttled_syns += 1;
            if !spoofed {
                self.stats.collateral_syns += 1;
            }
            MitigationDecision::Throttle(key)
        }
    }

    /// Count-level throttling for deployments that never see individual
    /// records (count-driven fleet runs): while
    /// engaged, the period's SYN volume beyond `K̄ + allowance` is deemed
    /// attack excess and throttled in aggregate. Returns the number of
    /// SYNs throttled. An approximation — no per-key attribution is
    /// possible from counts — so record-level drivers must use
    /// [`MitigationEngine::process`] instead, never both.
    pub fn count_throttle(&mut self, detection: &Detection, syn: u64) -> u64 {
        let Some(engagement) = &self.engagement else {
            return 0;
        };
        let budget = (detection.k_average + engagement.allowance)
            .round()
            .max(0.0) as u64;
        let throttled = syn.saturating_sub(budget);
        self.stats.throttled_syns += throttled;
        self.stats.passed_syns += syn - throttled;
        throttled
    }

    /// Captures the engine's complete state for checkpointing.
    pub fn snapshot(&self) -> MitigationState {
        let mut activity: Vec<MacTally> = self
            .locator
            .activity()
            .iter()
            .map(|(mac, a)| MacTally {
                mac: *mac,
                spoofed_syns: a.spoofed_syns,
                legitimate_syns: a.legitimate_syns,
            })
            .collect();
        activity.sort_by_key(|t| t.mac);
        MitigationState {
            policy: self.policy,
            offset: self.offset,
            threshold: self.threshold,
            period_secs: self.period_secs,
            stub: self
                .locator
                .stub()
                .map(|net| net.to_string())
                .unwrap_or_default(),
            armed: self.locator.is_armed(),
            activity,
            engagement: self.engagement.as_ref().map(|e| EngagementState {
                allowance: e.allowance,
                buckets: e
                    .buckets
                    .iter()
                    .map(|(key, bucket)| BucketEntry {
                        key: *key,
                        bucket: *bucket,
                    })
                    .collect(),
            }),
            gate: self.gate,
            calm_streak: self.calm_streak,
            suspect: self.suspect.as_ref().map(|s| SuspectState {
                mac: s.mac,
                spoofed_syns: s.spoofed_syns,
                share: s.share,
            }),
            stats: self.stats,
            engaged_at: self.engaged_at,
            released_at: self.released_at,
            syn_fps: self.syn_fps.entries().collect(),
            period_fps: self.period_fps.entries().collect(),
            attack_fps: self.locator.attack_fingerprints().entries().collect(),
            window_syn: self.window_syn,
            window_synack: self.window_synack,
        }
    }

    /// Rebuilds an engine from a captured state.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field (unparsable stub
    /// prefix, non-finite or non-positive numeric parameters).
    pub fn from_state(state: &MitigationState) -> Result<Self, String> {
        let stub = if state.stub.is_empty() {
            None
        } else {
            Some(
                state
                    .stub
                    .parse::<Ipv4Net>()
                    .map_err(|e| format!("bad mitigation stub prefix {:?}: {e}", state.stub))?,
            )
        };
        if !(state.period_secs > 0.0 && state.period_secs.is_finite()) {
            return Err(format!(
                "bad mitigation period length {}",
                state.period_secs
            ));
        }
        if !(state.threshold > 0.0 && state.threshold.is_finite()) {
            return Err(format!("bad mitigation threshold {}", state.threshold));
        }
        let by_mac: HashMap<MacAddr, MacActivity> = state
            .activity
            .iter()
            .map(|t| {
                (
                    t.mac,
                    MacActivity {
                        spoofed_syns: t.spoofed_syns,
                        legitimate_syns: t.legitimate_syns,
                    },
                )
            })
            .collect();
        Ok(MitigationEngine {
            policy: state.policy,
            offset: state.offset,
            threshold: state.threshold,
            period_secs: state.period_secs,
            locator: SourceLocator::from_parts(
                stub,
                state.armed,
                by_mac,
                FingerprintTable::from_entries(state.attack_fps.iter().copied()),
            ),
            engagement: state.engagement.as_ref().map(|e| Engagement {
                allowance: e.allowance,
                buckets: e
                    .buckets
                    .iter()
                    .map(|entry| (entry.key, entry.bucket))
                    .collect(),
            }),
            gate: state.gate,
            calm_streak: state.calm_streak,
            suspect: state.suspect.as_ref().map(|s| Suspect {
                mac: s.mac,
                spoofed_syns: s.spoofed_syns,
                share: s.share,
            }),
            stats: state.stats,
            engaged_at: state.engaged_at,
            released_at: state.released_at,
            syn_fps: FingerprintTable::from_entries(state.syn_fps.iter().copied()),
            period_fps: FingerprintTable::from_entries(state.period_fps.iter().copied()),
            window_syn: state.window_syn,
            window_synack: state.window_synack,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddrV4;

    fn stub() -> Ipv4Net {
        "128.1.0.0/16".parse().unwrap()
    }

    fn engine() -> MitigationEngine {
        MitigationEngine::new(
            stub(),
            &SynDogConfig::paper_default(),
            MitigationPolicy::paper_default(),
        )
    }

    fn detection(x: f64, k_average: f64) -> Detection {
        Detection {
            period: 0,
            delta: x * k_average,
            k_average,
            x,
            statistic: 0.0,
            alarm: false,
        }
    }

    fn syn_at(secs_milli: u64, src: &str, mac: MacAddr) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_micros(secs_milli * 1000),
            Direction::Outbound,
            SegmentKind::Syn,
            src.parse::<SocketAddrV4>().unwrap(),
            "192.0.2.80:80".parse().unwrap(),
        )
        .with_mac(mac)
    }

    #[test]
    fn token_bucket_is_deterministic_and_refills_from_sim_time() {
        let mut bucket = TokenBucket::new(2.0, 1.0, SimTime::ZERO);
        assert!(bucket.admit(SimTime::ZERO));
        assert!(bucket.admit(SimTime::ZERO));
        assert!(!bucket.admit(SimTime::ZERO), "burst capacity exhausted");
        // One simulated second refills one token.
        assert!(bucket.admit(SimTime::from_secs(1)));
        assert!(!bucket.admit(SimTime::from_secs(1)));
        // Refill caps at capacity.
        assert!(bucket.admit(SimTime::from_secs(100)));
        assert!(bucket.admit(SimTime::from_secs(100)));
        assert!(!bucket.admit(SimTime::from_secs(100)));
    }

    #[test]
    fn engages_exactly_when_the_cusum_would_alarm() {
        let mut engine = engine();
        // x̃ = 0.85 − 0.35 = 0.5 per period: crossing at the third, same
        // as the real CUSUM in cusum.rs's climbs_linearly_under_attack.
        engine.on_detection(&detection(0.85, 100.0), 0);
        engine.on_detection(&detection(0.85, 100.0), 1);
        assert!(!engine.is_engaged());
        engine.on_detection(&detection(0.85, 100.0), 2);
        assert!(engine.is_engaged());
        assert_eq!(engine.engaged_at(), Some(2));
        assert_eq!(engine.stats().engagements, 1);
        // Allowance = 5% of K̄ = 5 SYNs per period.
        assert_eq!(engine.allowance(), Some(5.0));
    }

    #[test]
    fn throttles_the_dominant_mac_and_spares_legitimate_hosts() {
        let mut engine = engine();
        for p in 0..3 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        assert!(engine.is_engaged());
        let attacker = MacAddr::for_host(0xffff, 0xdead);
        let honest = MacAddr::for_host(1, 7);
        let mut forwarded_attack = 0u64;
        for i in 0..200u64 {
            // Attack: spoofed unroutable sources at 100 ms spacing.
            let decision = engine.process(&syn_at(
                i * 100,
                &format!("10.9.{}.5:6000", i % 200),
                attacker,
            ));
            if decision.forwarded() {
                forwarded_attack += 1;
            }
            // Legitimate in-stub host interleaved: never throttled.
            assert!(
                engine
                    .process(&syn_at(i * 100 + 50, "128.1.4.9:1025", honest))
                    .forwarded(),
                "legitimate SYN {i} must forward"
            );
        }
        // 20 s of attack at allowance 5/period (0.25 tokens/s) with a full
        // 5-token burst: a small fixed number gets through.
        assert!(
            forwarded_attack <= 12,
            "bucket leaked {forwarded_attack} attack SYNs"
        );
        let stats = engine.stats();
        assert_eq!(stats.attack_syns_offered, 200);
        assert_eq!(stats.attack_syns_forwarded, forwarded_attack);
        assert_eq!(stats.collateral_syns, 0);
        assert_eq!(stats.throttled_syns, 200 - forwarded_attack);
        assert_eq!(stats.passed_syns, 200 + forwarded_attack);
        // The suspect MAC is keyed, not the /24s.
        assert_eq!(engine.keys(), vec![ThrottleKey::Mac(attacker)]);
        let suspect = engine.suspect();
        assert!(suspect.is_none(), "suspect refreshes at period closes");
        engine.on_detection(&detection(2.0, 100.0), 3);
        assert_eq!(engine.suspect().unwrap().mac, attacker);
    }

    #[test]
    fn falls_back_to_prefix_keys_when_no_mac_dominates() {
        let mut engine = engine();
        for p in 0..3 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        // Two attackers splitting the spoofed load 50/50. The very first
        // spoofed record momentarily crowns its MAC (share 1.0), so `a`
        // is keyed by MAC; from then on neither holds a strict majority,
        // so `b`'s stream falls back to its spoofed /24. Either way both
        // streams land on a throttle key — nothing escapes unkeyed.
        let a = MacAddr::for_host(2, 1);
        let b = MacAddr::for_host(2, 2);
        for i in 0..100u64 {
            engine.process(&syn_at(i * 200, "10.1.1.9:6000", a));
            engine.process(&syn_at(i * 200 + 100, "10.2.2.9:6000", b));
        }
        let keys = engine.keys();
        assert!(
            keys.contains(&ThrottleKey::Mac(a)),
            "first attacker keyed by MAC: {keys:?}"
        );
        assert!(
            keys.contains(&ThrottleKey::Prefix("10.2.2.0".parse().unwrap())),
            "second attacker falls back to its /24: {keys:?}"
        );
        assert_eq!(keys.len(), 2, "exactly one key per attack stream");
        // Both buckets run at allowance 5/period against 100 SYNs each:
        // the overwhelming majority of both streams is shed.
        assert!(engine.stats().throttled_syns > 150);
    }

    #[test]
    fn collateral_damage_is_counted_when_a_suspect_mixes_traffic() {
        let mut engine = engine();
        for p in 0..3 {
            engine.on_detection(&detection(2.0, 20.0), p);
        }
        // Allowance floors at min(K̄ fraction) = max(0.05·20, 1) = 1.
        let attacker = MacAddr::for_host(3, 3);
        // Establish the MAC as the dominant suspect...
        for i in 0..50u64 {
            engine.process(&syn_at(i * 10, "10.0.0.7:6000", attacker));
        }
        // ...then the same host also emits legitimate in-stub SYNs, which
        // now hit its exhausted bucket: collateral.
        let before = engine.stats().collateral_syns;
        for i in 0..10u64 {
            engine.process(&syn_at(600 + i, "128.1.0.7:1026", attacker));
        }
        assert!(engine.stats().collateral_syns > before);
    }

    #[test]
    fn release_uses_hysteresis_and_the_clamped_gate() {
        let mut engine = engine();
        // A long flood: the real CUSUM would climb to ~50 here; the gate
        // clamps at N so it can drain promptly.
        for p in 0..30 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        assert!(engine.is_engaged());
        assert!(engine.gate() <= SynDogConfig::paper_default().threshold + 1e-12);
        // Attack over: background x ≈ 0.05 drains the gate below N on the
        // first calm period; M consecutive calm periods release.
        for p in 30..30 + u64::from(RELEASE_PERIODS) - 1 {
            engine.on_detection(&detection(0.05, 100.0), p);
            assert!(engine.is_engaged(), "released too early at period {p}");
        }
        engine.on_detection(&detection(0.05, 100.0), 32);
        assert!(!engine.is_engaged());
        assert_eq!(engine.released_at(), Some(32));
        assert_eq!(engine.stats().releases, 1);
        // A single noisy period resets the streak (hysteresis).
        let mut noisy = MitigationEngine::new(
            stub(),
            &SynDogConfig::paper_default(),
            MitigationPolicy::paper_default(),
        );
        for p in 0..3 {
            noisy.on_detection(&detection(2.0, 100.0), p);
        }
        noisy.on_detection(&detection(0.05, 100.0), 3);
        noisy.on_detection(&detection(2.0, 100.0), 4); // flare-up
        noisy.on_detection(&detection(0.05, 100.0), 5);
        noisy.on_detection(&detection(0.05, 100.0), 6);
        assert!(noisy.is_engaged(), "streak must restart after a flare-up");
    }

    #[test]
    fn re_engagement_needs_fresh_evidence_not_a_draining_cusum() {
        let mut engine = engine();
        for p in 0..30 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        for p in 30..33 {
            engine.on_detection(&detection(0.05, 100.0), p);
        }
        assert!(!engine.is_engaged());
        // Many more calm periods: the unbounded detector CUSUM would still
        // be far above N here, but the engine must stay released.
        for p in 33..60 {
            engine.on_detection(&detection(0.05, 100.0), p);
            assert!(!engine.is_engaged());
        }
        // A second flood re-engages (fresh threshold crossing).
        engine.on_detection(&detection(2.0, 100.0), 60);
        assert!(engine.is_engaged());
        assert_eq!(engine.stats().engagements, 2);
    }

    #[test]
    fn count_throttle_sheds_the_excess_over_k_plus_allowance() {
        let mut engine = engine();
        assert_eq!(engine.count_throttle(&detection(2.0, 100.0), 300), 0);
        for p in 0..3 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        // K̄ = 100, allowance 5: a 300-SYN period sheds 195.
        assert_eq!(engine.count_throttle(&detection(2.0, 100.0), 300), 195);
        assert_eq!(engine.stats().throttled_syns, 195);
        assert_eq!(engine.stats().passed_syns, 105);
        // A quiet period sheds nothing.
        assert_eq!(engine.count_throttle(&detection(0.0, 100.0), 90), 0);
    }

    #[test]
    fn disengaged_engine_is_a_pure_pass_through() {
        let mut engine = engine();
        let decision = engine.process(&syn_at(0, "10.0.0.1:6000", MacAddr::for_host(1, 1)));
        assert_eq!(decision, MitigationDecision::Forward);
        assert_eq!(*engine.stats(), MitigationStats::default());
        assert!(engine.locator().activity().is_empty());
    }

    #[test]
    fn state_snapshot_round_trips_and_preserves_future_decisions() {
        let mut engine = engine();
        for p in 0..3 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        let attacker = MacAddr::for_host(9, 9);
        for i in 0..40u64 {
            engine.process(&syn_at(i * 100, "10.5.0.2:6000", attacker));
        }
        engine.on_detection(&detection(2.0, 100.0), 3);
        let state = engine.snapshot();
        let mut restored = MitigationEngine::from_state(&state).expect("valid state");
        assert_eq!(restored, engine);
        // And the two engines keep agreeing on subsequent traffic.
        for i in 40..80u64 {
            let record = syn_at(i * 100, "10.5.0.2:6000", attacker);
            assert_eq!(engine.process(&record), restored.process(&record));
        }
        assert_eq!(engine, restored);
        // JSON round-trip too (the checkpoint envelope is JSON).
        let json = serde_json::to_string(&state).expect("serializable");
        let parsed: MitigationState = serde_json::from_str(&json).expect("parsable");
        assert_eq!(parsed, state);
    }

    #[test]
    fn from_state_rejects_garbage() {
        let mut state = engine().snapshot();
        state.stub = "not-a-prefix".into();
        assert!(MitigationEngine::from_state(&state).is_err());
        let mut state = engine().snapshot();
        state.period_secs = 0.0;
        assert!(MitigationEngine::from_state(&state).is_err());
        let mut state = engine().snapshot();
        state.threshold = f64::NAN;
        assert!(MitigationEngine::from_state(&state).is_err());
    }

    #[test]
    fn state_bytes_grows_with_keys_and_tallies() {
        let mut engine = engine();
        let empty = engine.state_bytes();
        for p in 0..3 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        for i in 0..10u64 {
            engine.process(&syn_at(
                i * 100,
                &format!("10.{i}.0.2:6000"),
                MacAddr::for_host(4, i as u32),
            ));
        }
        assert!(engine.state_bytes() > empty);
    }

    #[test]
    fn throttle_key_display_is_stable() {
        let mac = MacAddr::for_host(1, 2);
        assert_eq!(ThrottleKey::Mac(mac).to_string(), format!("mac:{mac}"));
        assert_eq!(
            ThrottleKey::for_spoofed_source("10.1.2.77".parse().unwrap()).to_string(),
            "net:10.1.2.0/24"
        );
        let fp = tool_fp();
        assert_eq!(
            ThrottleKey::Fingerprint(fp.to_bits()).to_string(),
            format!("fp:{fp}")
        );
    }

    #[test]
    fn key_mode_parses_displays_and_rejects_unknown() {
        for mode in KeyMode::ALL {
            assert_eq!(mode.name().parse::<KeyMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.name());
        }
        let err = "syn-cookie".parse::<KeyMode>().unwrap_err();
        assert!(err.contains("syn-cookie"), "error names the input: {err}");
    }

    /// A constant tool template: the kind of packed key every SYN of one
    /// flooding tool carries.
    fn tool_fp() -> FingerprintKey {
        FingerprintKey::new(255, 512, 0, 0, 0)
    }

    fn engine_with(policy: MitigationPolicy) -> MitigationEngine {
        MitigationEngine::new(stub(), &SynDogConfig::paper_default(), policy)
    }

    #[test]
    fn fingerprint_keying_survives_mac_and_prefix_rotation_with_zero_collateral() {
        let mut engine =
            engine_with(MitigationPolicy::paper_default().with_key_mode(KeyMode::Fingerprint));
        for p in 0..3 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        assert!(engine.is_engaged());
        let tool = tool_fp().to_bits();
        for i in 0..200u64 {
            // The attacker rotates both the spoofed /24 and the forged
            // MAC per packet — the evasions that defeat prefix and MAC
            // keying — but the tool's header template rides every SYN.
            let attack = syn_at(
                i * 100,
                &format!("10.{}.{}.5:6000", i / 8, i % 8),
                MacAddr::for_host(0xfffe, (i % 16) as u32),
            )
            .with_fp(tool);
            engine.process(&attack);
            // Legitimate in-stub hosts carry real OS-stack fingerprints:
            // never keyed, never throttled.
            let legit = syn_at(i * 100 + 50, "128.1.4.9:1025", MacAddr::for_host(1, 7))
                .with_fp(syndog_fingerprint::os_mix::for_host(5, i as u32).to_bits());
            assert!(
                engine.process(&legit).forwarded(),
                "legitimate SYN {i} must forward"
            );
        }
        let stats = engine.stats();
        assert_eq!(
            stats.collateral_syns, 0,
            "fingerprint keying never touches legit SYNs"
        );
        assert_eq!(stats.attack_syns_offered, 200);
        assert!(
            stats.attack_drop_fraction().unwrap() >= 0.9,
            "rotation-immune shedding: {:?}",
            stats.attack_drop_fraction()
        );
        // One bucket for the whole campaign, keyed on the template.
        assert_eq!(engine.keys(), vec![ThrottleKey::Fingerprint(tool)]);
        let (dominant, share) = engine.suspect_fingerprint().expect("attributed");
        assert_eq!(dominant.to_bits(), tool);
        assert!(share > 0.99);
    }

    #[test]
    fn prefix_keying_leaks_rotating_prefixes_and_charges_busy_legit_slash_24s() {
        let mut engine =
            engine_with(MitigationPolicy::paper_default().with_key_mode(KeyMode::Prefix));
        for p in 0..3 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        // Rotating-/24 flood: every SYN lands on a fresh prefix and meets
        // a fresh, full bucket — nothing is shed.
        for i in 0..50u64 {
            let attack = syn_at(
                i * 10,
                &format!("10.{}.{}.5:6000", i / 256, i % 256),
                MacAddr::for_host(0xfffe, 1),
            );
            assert!(engine.process(&attack).forwarded(), "fresh /24 {i} passes");
        }
        assert_eq!(engine.stats().attack_drop_fraction(), Some(0.0));
        // Meanwhile one busy legitimate /24 shares a single bucket and
        // burns through its own allowance: collateral.
        for i in 0..50u64 {
            engine.process(&syn_at(
                1000 + i,
                &format!("128.1.4.{}:1025", i % 20),
                MacAddr::for_host(1, (i % 20) as u32),
            ));
        }
        assert!(
            engine.stats().collateral_syns > 0,
            "prefix keying charges legitimate volume to shared buckets"
        );
    }

    /// One period's worth of flash-crowd evidence: many distinct OS-stack
    /// fingerprints on the SYNs, and most handshakes completing.
    fn feed_crowd_period(engine: &mut MitigationEngine, base_ms: u64) {
        // Five stacks that differ only in their initial window.
        let stacks: Vec<FingerprintKey> = (1..=5)
            .map(|k| FingerprintKey::new(64, 8192 * k, 1460, 0, 0))
            .collect();
        for i in 0..20u64 {
            let syn = syn_at(
                base_ms + i * 10,
                &format!("128.1.9.{}:2000", 10 + i),
                MacAddr::for_host(2, i as u32),
            )
            .with_fp(stacks[(i % 5) as usize].to_bits());
            engine.process(&syn);
            if i % 5 != 0 {
                // 80% of handshakes answered — a crowd reaching a live
                // service, not spoofed sources that never hear back.
                let synack = TraceRecord::new(
                    SimTime::from_micros((base_ms + i * 10 + 5) * 1000),
                    Direction::Inbound,
                    SegmentKind::SynAck,
                    "192.0.2.80:80".parse().unwrap(),
                    format!("128.1.9.{}:2000", 10 + i).parse().unwrap(),
                );
                engine.process(&synack);
            }
        }
    }

    #[test]
    fn flash_crowd_is_exonerated_each_period_but_a_tool_flood_engages() {
        let mut engine = engine();
        // Two surge periods that would otherwise engage: diverse
        // fingerprints + completing handshakes suppress the throttles,
        // and the clamped gate re-takes the test every period.
        for p in 0..2u64 {
            feed_crowd_period(&mut engine, p * 1000);
            engine.on_detection(&detection(2.0, 100.0), p);
            assert!(!engine.is_engaged(), "crowd period {p} must not engage");
        }
        assert_eq!(engine.stats().exonerated_periods, 2);
        assert_eq!(engine.stats().engagements, 0);
        // The moment the surge starts looking like a tool — one template,
        // no completions — throttles go in on the very next close.
        for i in 0..30u64 {
            engine.process(
                &syn_at(3000 + i * 10, "10.3.0.9:6000", MacAddr::for_host(3, 1))
                    .with_fp(tool_fp().to_bits()),
            );
        }
        engine.on_detection(&detection(2.0, 100.0), 2);
        assert!(engine.is_engaged(), "tool-template surge engages");
        assert_eq!(engine.stats().engagements, 1);
    }

    #[test]
    fn count_level_runs_without_a_fingerprint_window_still_engage() {
        // No per-record stream means no exoneration evidence; the engine
        // behaves exactly as it did before the fingerprint subsystem.
        let mut engine = engine();
        for p in 0..3 {
            engine.on_detection(&detection(2.0, 100.0), p);
        }
        assert!(engine.is_engaged());
        assert_eq!(engine.stats().exonerated_periods, 0);
    }
}
