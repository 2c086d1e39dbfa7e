//! Versioned, checksummed checkpoint/restore of detection state.
//!
//! A SYN-dog agent learns continuously: the SYN/ACK EWMA `K̄` takes many
//! periods to converge, and the CUSUM statistic `y_n` carries the whole
//! attack history. A router that restarts mid-attack must not re-learn
//! either — §3.1's normalization is only as good as the `K̄` behind it.
//! [`Checkpoint`] captures everything the detection pipeline needs to
//! resume exactly where it stopped:
//!
//! - the detector (an [`AnyDetector`]: which strategy, its config, learned
//!   baseline, decision statistic, period count),
//! - the router's period clock and stub prefix,
//! - both sniffers' pending (`syn`/`synack`/`fin`/`rst` since the last
//!   period close) and lifetime counters,
//! - the recorded detection series and alarms, plus the agent's
//!   period-index base,
//! - the mitigation engine, when one is attached ([`MitigationState`]):
//!   installed throttle keys with exact token-bucket fill levels, the
//!   hysteresis gate and calm streak, the armed locator's per-MAC
//!   tallies, and the decision counters — a restarted router resumes
//!   throttling mid-attack instead of re-deriving the engagement.
//!
//! # Wire format
//!
//! A checkpoint file is a JSON envelope:
//!
//! ```json
//! {"magic":"syndog-checkpoint","version":5,"crc32":3735928559,"payload":"{…}"}
//! ```
//!
//! The `payload` string is the serialized [`Checkpoint`]; `crc32` is the
//! IEEE CRC-32 of the payload's UTF-8 bytes. Rules, in validation order:
//!
//! 1. `magic` must be exactly `syndog-checkpoint` ([`CheckpointError::BadMagic`]),
//! 2. `version` must be exactly [`CHECKPOINT_VERSION`]
//!    ([`CheckpointError::UnsupportedVersion`]); any payload-schema change
//!    bumps the version, and older files are rejected rather than migrated,
//! 3. `crc32` must match the payload bytes ([`CheckpointError::CrcMismatch`]) —
//!    a truncated or hand-edited file fails closed rather than restoring
//!    half a detector.
//!
//! The round-trip guarantee (checkpoint at period `k`, restore, feed the
//! rest of the trace → detections identical to an uninterrupted run) is
//! exercised in `tests/faults.rs`.

use syndog::{AnyDetector, Detection, PeriodSignals};
use syndog_net::{Ipv4Net, SegmentKind};
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::Direction;

use serde::{Deserialize, Serialize};

use crate::agent::Alarm;
use crate::mitigate::{MitigationEngine, MitigationState};
use crate::router::LeafRouter;
use crate::sniffer::Sniffer;

/// The checkpoint payload schema version this build writes, and the only
/// one it reads.
///
/// Version history: 1 — detector/router/sniffer state only; 2 — adds the
/// optional `mitigation` payload field (throttle buckets, hysteresis
/// gate, locator tallies, decision counters); 3 — the detector becomes a
/// strategy-tagged [`AnyDetector`] union and sniffers carry pending
/// `fin`/`rst` counts; 4 — the mitigation state gains the SYN
/// fingerprint subsystem (lifetime and per-period fingerprint tables,
/// the locator's attack-fingerprint tallies, the flash-crowd exoneration
/// window and tally, and the policy's key-mode/exoneration knobs); 5 —
/// the policy keeps only those knobs (its bucket size, burst, release
/// periods and suspect share became constants).
pub const CHECKPOINT_VERSION: u32 = 5;

/// The envelope magic string.
const MAGIC: &str = "syndog-checkpoint";

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) — the same checksum
/// pcap tooling and zlib use, implemented bitwise to stay dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Why a checkpoint could not be parsed or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file is not valid JSON or not a checkpoint envelope/payload.
    Malformed(String),
    /// The envelope magic is wrong — not a checkpoint file at all.
    BadMagic(String),
    /// The envelope's schema version is one this build does not read.
    UnsupportedVersion(u32),
    /// The payload bytes do not match the envelope checksum.
    CrcMismatch {
        /// The checksum the envelope claims.
        expected: u32,
        /// The checksum the payload actually has.
        actual: u32,
    },
    /// The payload parsed but describes an unusable state.
    InvalidState(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::BadMagic(found) => {
                write!(f, "not a checkpoint file (magic `{found}`, want `{MAGIC}`)")
            }
            CheckpointError::UnsupportedVersion(version) => write!(
                f,
                "unsupported checkpoint version {version} (this build reads only \
                 version {CHECKPOINT_VERSION})"
            ),
            CheckpointError::CrcMismatch { expected, actual } => write!(
                f,
                "checkpoint CRC mismatch: envelope says {expected:#010x}, payload is {actual:#010x}"
            ),
            CheckpointError::InvalidState(why) => write!(f, "invalid checkpoint state: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One sniffer's counters, captured for restore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnifferState {
    /// Pending SYN count (since the last period close).
    pub syn: u64,
    /// Pending SYN/ACK count.
    pub synack: u64,
    /// Pending FIN count.
    pub fin: u64,
    /// Pending RST count.
    pub rst: u64,
    /// Lifetime frames seen.
    pub frames_seen: u64,
    /// Lifetime malformed frames.
    pub malformed: u64,
    /// Lifetime per-[`SegmentKind`] tallies, in [`SegmentKind::ALL`]
    /// order. A `Vec` on the wire so the arity is validated on restore
    /// rather than assumed.
    pub kinds: Vec<u64>,
}

impl SnifferState {
    /// Captures a sniffer's counters.
    pub fn capture(sniffer: &Sniffer) -> Self {
        SnifferState {
            syn: sniffer.syn_count(),
            synack: sniffer.synack_count(),
            fin: sniffer.fin_count(),
            rst: sniffer.rst_count(),
            frames_seen: sniffer.frames_seen(),
            malformed: sniffer.malformed(),
            kinds: SegmentKind::ALL
                .iter()
                .map(|&k| sniffer.kind_count(k))
                .collect(),
        }
    }

    fn restore_into(&self, sniffer: &mut Sniffer) -> Result<(), CheckpointError> {
        let kinds: [u64; SegmentKind::ALL.len()] =
            self.kinds.as_slice().try_into().map_err(|_| {
                CheckpointError::InvalidState(format!(
                    "sniffer kind tallies: got {} entries, want {}",
                    self.kinds.len(),
                    SegmentKind::ALL.len()
                ))
            })?;
        let pending = PeriodSignals {
            syn: self.syn,
            synack: self.synack,
            fin: self.fin,
            rst: self.rst,
        };
        sniffer.restore_counts(pending, self.frames_seen, self.malformed, kinds);
        Ok(())
    }
}

/// A recorded alarm, flattened to serializable primitives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlarmState {
    /// Detector-relative period index.
    pub period: u64,
    /// Alarm time in simulated microseconds.
    pub time_micros: u64,
    /// The CUSUM statistic that crossed.
    pub statistic: f64,
}

impl AlarmState {
    /// Captures an [`Alarm`].
    pub fn from_alarm(alarm: &Alarm) -> Self {
        AlarmState {
            period: alarm.period,
            time_micros: alarm.time.as_micros(),
            statistic: alarm.statistic,
        }
    }

    /// Rebuilds the [`Alarm`].
    pub fn to_alarm(self) -> Alarm {
        Alarm {
            period: self.period,
            time: SimTime::from_micros(self.time_micros),
            statistic: self.statistic,
        }
    }
}

/// The complete captured state of a detection pipeline (see the
/// module docs for what is covered and why).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The router's stub prefix, in CIDR notation.
    pub stub: String,
    /// The observation period `t0`, in microseconds.
    pub period_micros: u64,
    /// Absolute index of the period the router is accumulating.
    pub current_period: u64,
    /// Absolute period index of the detector's period 0.
    pub period_base: u64,
    /// The outbound sniffer's counters.
    pub outbound: SnifferState,
    /// The inbound sniffer's counters.
    pub inbound: SnifferState,
    /// The detector: strategy tag, config, learned baseline, decision
    /// statistic, period count. Serialized externally tagged
    /// (`{"syndog": {...}}`).
    pub detector: AnyDetector,
    /// The per-period detection series recorded so far.
    pub detections: Vec<Detection>,
    /// The alarms raised so far.
    pub alarms: Vec<AlarmState>,
    /// The mitigation engine's state — `None` for agents without a
    /// [`MitigationEngine`].
    pub mitigation: Option<MitigationState>,
}

/// The on-disk envelope around a serialized [`Checkpoint`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Envelope {
    magic: String,
    version: u32,
    crc32: u32,
    payload: String,
}

impl Checkpoint {
    /// Captures a detection pipeline's state.
    pub fn capture(
        router: &LeafRouter,
        period_base: u64,
        detector: &AnyDetector,
        detections: &[Detection],
        alarms: &[Alarm],
        mitigation: Option<&MitigationEngine>,
    ) -> Self {
        Checkpoint {
            stub: router.stub().to_string(),
            period_micros: router.period().as_micros(),
            current_period: router.current_period(),
            period_base,
            outbound: SnifferState::capture(router.sniffer(Direction::Outbound)),
            inbound: SnifferState::capture(router.sniffer(Direction::Inbound)),
            detector: detector.clone(),
            detections: detections.to_vec(),
            alarms: alarms.iter().map(AlarmState::from_alarm).collect(),
            mitigation: mitigation.map(MitigationEngine::snapshot),
        }
    }

    /// Rebuilds the [`LeafRouter`] this checkpoint describes: stub,
    /// period clock position, and both sniffers' counters.
    pub(crate) fn restore_router(&self) -> Result<LeafRouter, CheckpointError> {
        let stub: Ipv4Net = self.stub.parse().map_err(|_| {
            CheckpointError::InvalidState(format!("bad stub prefix `{}`", self.stub))
        })?;
        if self.period_micros == 0 {
            return Err(CheckpointError::InvalidState(
                "zero observation period".to_string(),
            ));
        }
        let mut router = LeafRouter::new(stub, SimDuration::from_micros(self.period_micros));
        router.set_current_period(self.current_period);
        self.outbound
            .restore_into(router.sniffer_mut(Direction::Outbound))?;
        self.inbound
            .restore_into(router.sniffer_mut(Direction::Inbound))?;
        Ok(router)
    }

    /// Rebuilds the [`MitigationEngine`] this checkpoint carries, if any.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::InvalidState`] when the captured
    /// mitigation state is internally inconsistent (unparseable stub,
    /// non-positive period or threshold).
    pub fn restore_mitigation(&self) -> Result<Option<MitigationEngine>, CheckpointError> {
        self.mitigation
            .as_ref()
            .map(|state| {
                MitigationEngine::from_state(state)
                    .map_err(|why| CheckpointError::InvalidState(format!("mitigation: {why}")))
            })
            .transpose()
    }

    /// Serializes to the versioned, checksummed JSON envelope.
    ///
    /// # Panics
    ///
    /// Panics if the detector state holds non-finite floats — impossible
    /// for states produced by the detector itself (`y_n` and `K̄` are
    /// finite by construction).
    pub fn to_json(&self) -> String {
        let payload = serde_json::to_string(self)
            .expect("checkpoint state is finite-valued and serializable");
        let envelope = Envelope {
            magic: MAGIC.to_string(),
            version: CHECKPOINT_VERSION,
            crc32: crc32(payload.as_bytes()),
            payload,
        };
        serde_json::to_string(&envelope).expect("envelope is serializable")
    }

    /// Parses and validates a JSON envelope (magic, then version, then
    /// CRC, then payload — see the module docs).
    ///
    /// # Errors
    ///
    /// Returns the [`CheckpointError`] for the first failed validation.
    pub fn from_json(text: &str) -> Result<Checkpoint, CheckpointError> {
        let envelope: Envelope = serde_json::from_str(text)
            .map_err(|err| CheckpointError::Malformed(format!("envelope: {err:?}")))?;
        if envelope.magic != MAGIC {
            return Err(CheckpointError::BadMagic(envelope.magic));
        }
        if envelope.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(envelope.version));
        }
        let actual = crc32(envelope.payload.as_bytes());
        if actual != envelope.crc32 {
            return Err(CheckpointError::CrcMismatch {
                expected: envelope.crc32,
                actual,
            });
        }
        serde_json::from_str(&envelope.payload)
            .map_err(|err| CheckpointError::Malformed(format!("payload: {err:?}")))
    }

    /// Writes the checkpoint to `path` atomically: serialize to a
    /// sibling temp file in the same directory, flush to disk, then
    /// rename over the target. A crash mid-write leaves either the
    /// previous complete file or a stray `.tmp` — never a truncated
    /// checkpoint under the final name.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (create, write, sync, rename).
    pub fn write_atomic(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let file_name = path
            .file_name()
            .and_then(|name| name.to_str())
            .unwrap_or("checkpoint");
        let tmp = path.with_file_name(format!(".{file_name}.tmp-{}", std::process::id()));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(self.to_json().as_bytes())?;
            file.sync_all()?;
        }
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(err) => {
                let _ = std::fs::remove_file(&tmp);
                Err(err)
            }
        }
    }

    /// Reads and validates a checkpoint file. I/O failures (missing
    /// file, permission) surface as [`CheckpointError::Malformed`] so a
    /// caller probing rotation slots can treat "unreadable" and
    /// "corrupt" uniformly: skip the slot, try the previous one.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the file cannot be read or
    /// fails any envelope validation.
    pub fn read_file(path: &std::path::Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| CheckpointError::Malformed(format!("read {}: {err}", path.display())))?;
        Checkpoint::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog::SynDogConfig;

    fn sample_checkpoint() -> Checkpoint {
        let mut detector = syndog::DetectorKind::Syndog.build(SynDogConfig::paper_default());
        for _ in 0..5 {
            detector.observe(syndog::PeriodSignals {
                syn: 100,
                synack: 98,
                fin: 90,
                rst: 4,
            });
        }
        let mut router =
            LeafRouter::new("10.1.0.0/16".parse().unwrap(), SimDuration::from_secs(20));
        router
            .sniffer_mut(Direction::Outbound)
            .observe_kind(SegmentKind::Syn);
        router.set_current_period(5);
        Checkpoint::capture(&router, 0, &detector, &[], &[], None)
    }

    fn engaged_engine() -> crate::mitigate::MitigationEngine {
        use crate::mitigate::{MitigationEngine, MitigationPolicy};
        let config = SynDogConfig::paper_default();
        let mut engine = MitigationEngine::new(
            "10.1.0.0/16".parse().unwrap(),
            &config,
            MitigationPolicy::paper_default(),
        );
        let detection = Detection {
            period: 0,
            delta: 200.0,
            k_average: 100.0,
            x: 2.0,
            statistic: 1.65,
            alarm: true,
        };
        engine.on_detection(&detection, 0);
        assert!(engine.is_engaged());
        engine
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn envelope_round_trips() {
        let checkpoint = sample_checkpoint();
        let json = checkpoint.to_json();
        let parsed = Checkpoint::from_json(&json).unwrap();
        assert_eq!(parsed, checkpoint);
        let router = parsed.restore_router().unwrap();
        assert_eq!(router.current_period(), 5);
        assert_eq!(router.sniffer(Direction::Outbound).syn_count(), 1);
        assert_eq!(
            router
                .sniffer(Direction::Outbound)
                .kind_count(SegmentKind::Syn),
            1
        );
    }

    #[test]
    fn tampered_payload_fails_the_crc() {
        let json = sample_checkpoint().to_json();
        // Flip one digit inside the payload without breaking the JSON.
        let tampered = json.replacen("\\\"current_period\\\":5", "\\\"current_period\\\":6", 1);
        assert_ne!(json, tampered, "tamper target must exist");
        match Checkpoint::from_json(&tampered) {
            Err(CheckpointError::CrcMismatch { expected, actual }) => assert_ne!(expected, actual),
            other => panic!("want CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected_in_order() {
        let checkpoint = sample_checkpoint();
        let payload = serde_json::to_string(&checkpoint).unwrap();
        let crc = crc32(payload.as_bytes());
        let bad_magic = serde_json::to_string(&Envelope {
            magic: "not-a-checkpoint".to_string(),
            version: CHECKPOINT_VERSION,
            crc32: crc,
            payload: payload.clone(),
        })
        .unwrap();
        assert_eq!(
            Checkpoint::from_json(&bad_magic),
            Err(CheckpointError::BadMagic("not-a-checkpoint".to_string()))
        );
        let future = serde_json::to_string(&Envelope {
            magic: MAGIC.to_string(),
            version: CHECKPOINT_VERSION + 1,
            crc32: crc,
            payload,
        })
        .unwrap();
        assert_eq!(
            Checkpoint::from_json(&future),
            Err(CheckpointError::UnsupportedVersion(CHECKPOINT_VERSION + 1))
        );
        assert!(matches!(
            Checkpoint::from_json("{"),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn versions_before_4_are_rejected() {
        // Older builds' files are refused at the envelope, never migrated
        // or half-read, even when the payload itself would parse.
        let payload = serde_json::to_string(&sample_checkpoint()).unwrap();
        let crc = crc32(payload.as_bytes());
        for version in 1..CHECKPOINT_VERSION {
            let old = serde_json::to_string(&Envelope {
                magic: MAGIC.to_string(),
                version,
                crc32: crc,
                payload: payload.clone(),
            })
            .unwrap();
            assert_eq!(
                Checkpoint::from_json(&old),
                Err(CheckpointError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn deeply_nested_input_is_rejected_without_overflowing_the_stack() {
        assert!(matches!(
            Checkpoint::from_json(&"[".repeat(200_000)),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn version_4_round_trips_mid_attack_fingerprint_throttles() {
        use crate::mitigate::{KeyMode, MitigationEngine, MitigationPolicy, ThrottleKey};
        use std::net::SocketAddrV4;
        use syndog_net::MacAddr;
        use syndog_traffic::TraceRecord;

        let tool = syndog_fingerprint::FingerprintKey::new(255, 512, 0, 0, 0).to_bits();
        let syn = |ms: u64, src: &str, host: u32| {
            TraceRecord::new(
                SimTime::from_micros(ms * 1000),
                Direction::Outbound,
                SegmentKind::Syn,
                src.parse::<SocketAddrV4>().unwrap(),
                "192.0.2.80:80".parse().unwrap(),
            )
            .with_mac(MacAddr::for_host(0xfffe, host))
            .with_fp(tool)
        };
        let config = SynDogConfig::paper_default();
        let mut engine = MitigationEngine::new(
            "10.1.0.0/16".parse().unwrap(),
            &config,
            MitigationPolicy::paper_default().with_key_mode(KeyMode::Fingerprint),
        );
        let detection = Detection {
            period: 0,
            delta: 200.0,
            k_average: 100.0,
            x: 2.0,
            statistic: 1.65,
            alarm: true,
        };
        engine.on_detection(&detection, 0);
        // A rotating-prefix, rotating-MAC flood mid-throttle: the bucket
        // is keyed on the tool's fingerprint.
        for i in 0..60u64 {
            engine.process(&syn(
                i * 100,
                &format!("172.16.{}.9:6000", i % 40),
                (i % 8) as u32,
            ));
        }
        assert_eq!(engine.keys(), vec![ThrottleKey::Fingerprint(tool)]);
        assert!(engine.stats().throttled_syns > 0);

        let mut checkpoint = sample_checkpoint();
        checkpoint.mitigation = Some(engine.snapshot());
        let json = checkpoint.to_json();
        let envelope: Envelope = serde_json::from_str(&json).unwrap();
        assert_eq!(envelope.version, CHECKPOINT_VERSION);
        let parsed = Checkpoint::from_json(&json).unwrap();
        assert_eq!(parsed, checkpoint);
        let mut restored = parsed
            .restore_mitigation()
            .unwrap()
            .expect("mitigation present");
        assert_eq!(restored, engine);
        // The restored engine keeps making byte-identical decisions.
        for i in 60..120u64 {
            let record = syn(
                i * 100,
                &format!("172.16.{}.9:6000", i % 40),
                (i % 8) as u32,
            );
            assert_eq!(engine.process(&record), restored.process(&record));
        }
        assert_eq!(engine, restored);
    }

    #[test]
    fn every_strategy_round_trips_through_the_envelope() {
        for kind in syndog::DetectorKind::ALL {
            let mut detector = kind.build(SynDogConfig::paper_default());
            for _ in 0..7 {
                detector.observe(syndog::PeriodSignals {
                    syn: 900,
                    synack: 850,
                    fin: 820,
                    rst: 40,
                });
            }
            let router =
                LeafRouter::new("10.1.0.0/16".parse().unwrap(), SimDuration::from_secs(20));
            let checkpoint = Checkpoint::capture(&router, 0, &detector, &[], &[], None);
            let parsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
            assert_eq!(parsed.detector, detector, "{kind} state must round-trip");
            assert_eq!(parsed.detector.kind(), kind);
        }
    }

    #[test]
    fn invalid_restored_state_is_rejected() {
        let mut checkpoint = sample_checkpoint();
        checkpoint.outbound.kinds.pop();
        assert!(matches!(
            checkpoint.restore_router(),
            Err(CheckpointError::InvalidState(_))
        ));
        let mut bad_stub = sample_checkpoint();
        bad_stub.stub = "not-a-prefix".to_string();
        assert!(matches!(
            bad_stub.restore_router(),
            Err(CheckpointError::InvalidState(_))
        ));
        let mut zero_period = sample_checkpoint();
        zero_period.period_micros = 0;
        assert!(matches!(
            zero_period.restore_router(),
            Err(CheckpointError::InvalidState(_))
        ));
    }

    #[test]
    fn mitigation_state_round_trips_through_the_envelope() {
        let engine = engaged_engine();
        let mut checkpoint = sample_checkpoint();
        checkpoint.mitigation = Some(engine.snapshot());
        let json = checkpoint.to_json();
        let parsed = Checkpoint::from_json(&json).unwrap();
        assert_eq!(parsed, checkpoint);
        let restored = parsed
            .restore_mitigation()
            .unwrap()
            .expect("mitigation state present");
        assert_eq!(restored, engine);
        assert!(restored.is_engaged());
    }

    #[test]
    fn checkpoint_without_mitigation_restores_as_none() {
        let checkpoint = sample_checkpoint();
        assert_eq!(checkpoint.mitigation, None);
        let parsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed.mitigation, None);
        assert_eq!(parsed.restore_mitigation(), Ok(None));
    }

    #[test]
    fn corrupt_mitigation_state_is_rejected() {
        let mut checkpoint = sample_checkpoint();
        let mut state = engaged_engine().snapshot();
        state.stub = "not-a-prefix".to_string();
        checkpoint.mitigation = Some(state);
        assert!(matches!(
            checkpoint.restore_mitigation(),
            Err(CheckpointError::InvalidState(_))
        ));
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("syndog-ck-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let checkpoint = sample_checkpoint();
        checkpoint.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::read_file(&path).unwrap(), checkpoint);
        // Overwrite in place: the rename replaces the old file.
        checkpoint.write_atomic(&path).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec!["ck.json".to_string()], "{entries:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_rejected_by_read_file() {
        let dir = std::env::temp_dir().join(format!("syndog-ck-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let json = sample_checkpoint().to_json();
        // A crash mid-write under non-atomic `fs::write` would leave a
        // prefix of the envelope; every prefix must fail validation.
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        assert!(matches!(
            Checkpoint::read_file(&path),
            Err(CheckpointError::Malformed(_))
        ));
        // Missing files are Malformed too (probe-a-slot semantics).
        assert!(matches!(
            Checkpoint::read_file(&dir.join("absent.json")),
            Err(CheckpointError::Malformed(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
