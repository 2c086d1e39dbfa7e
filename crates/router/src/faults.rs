//! Deterministic fault injection: one seeded pass over a record stream.
//!
//! The paper claims SYN-dog's first-mile detection survives packet loss,
//! reordering and partial observation (§3.1: `X_n = Δ_n / K̄` divides out
//! uniform loss, and reordering inside a period cannot move an alarm);
//! this module makes that claim testable. [`FaultSpec::faulted`] perturbs
//! a record stream with seeded, reproducible faults:
//!
//! | fault | spec key | effect |
//! |---|---|---|
//! | drop | `drop=P` | record removed with probability `P` |
//! | duplicate | `dup=P` | record emitted twice with probability `P` |
//! | reorder | `reorder=W` | records shuffled within windows of `W` |
//! | truncate | `truncate=P` | record unclassifiable, so shed |
//! | corrupt | `corrupt=P` | flag byte flipped: kind re-rolled |
//! | clock jitter | `jitter_ms=M` | timestamp perturbed by ±`M` ms |
//!
//! Every front end (`detect` with or without mitigation, the fleet)
//! faults through this one pass, so a spec means the same thing
//! everywhere, and the same seed replays the same faulted trace
//! bit-for-bit. A [`FaultLedger`] tallies what was done; a
//! [`FaultTelemetry`](crate::telemetry::FaultTelemetry) exports the
//! tallies as
//! `syndog_faults_total{kind=...}` counters.
//!
//! The faulted stream keeps arrival order: reordering and jitter leave
//! records out of time order on purpose. Every record loop runs a
//! forward-only period clock, so a late record lands in the then-current
//! period, which is the absorption behaviour the soak tests measure.

use std::collections::VecDeque;

use syndog_net::SegmentKind;
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::trace::{Trace, TraceRecord};

/// A seeded fault configuration. Construct via [`FaultSpec::parse`] (the
/// CLI `--faults` syntax) or struct update from [`FaultSpec::off`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability a record is dropped.
    pub drop: f64,
    /// Probability a record is duplicated.
    pub duplicate: f64,
    /// Reorder window: records are shuffled within consecutive windows of
    /// this many records. `0` or `1` disables reordering.
    pub reorder_window: usize,
    /// Probability a record copy is truncated past classification and
    /// shed.
    pub truncate: f64,
    /// Probability a record copy's kind is re-rolled to a different
    /// [`SegmentKind`] (a corrupted flag byte).
    pub corrupt: f64,
    /// Maximum clock perturbation applied to record timestamps, uniformly
    /// in `±jitter`.
    pub jitter: SimDuration,
    /// RNG seed: the same spec over the same trace replays the same
    /// faulted trace bit-for-bit.
    pub seed: u64,
}

impl FaultSpec {
    /// The identity spec: no faults, seed 0.
    pub fn off() -> Self {
        FaultSpec {
            drop: 0.0,
            duplicate: 0.0,
            reorder_window: 0,
            truncate: 0.0,
            corrupt: 0.0,
            jitter: SimDuration::ZERO,
            seed: 0,
        }
    }

    /// Whether this spec perturbs anything at all.
    pub fn is_off(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder_window <= 1
            && self.truncate == 0.0
            && self.corrupt == 0.0
            && self.jitter.is_zero()
    }

    /// Parses the CLI spec syntax: comma-separated `key=value` pairs with
    /// keys `drop`, `dup` (or `duplicate`), `reorder`, `truncate`,
    /// `corrupt`, `jitter_ms`, `seed` — e.g.
    /// `drop=0.05,reorder=8,jitter_ms=5,seed=42`. Unset keys default to
    /// off / seed 0.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys, non-numeric
    /// values, or probabilities outside `[0, 1]`.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        fn probability(key: &str, raw: &str) -> Result<f64, String> {
            let p: f64 = raw
                .parse()
                .map_err(|_| format!("fault {key}={raw}: not a number"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault {key}={raw}: probability outside [0, 1]"));
            }
            Ok(p)
        }
        let mut spec = FaultSpec::off();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry `{part}` is not key=value"))?;
            match key {
                "drop" => spec.drop = probability(key, value)?,
                "dup" | "duplicate" => spec.duplicate = probability(key, value)?,
                "truncate" => spec.truncate = probability(key, value)?,
                "corrupt" => spec.corrupt = probability(key, value)?,
                "reorder" => {
                    spec.reorder_window = value
                        .parse()
                        .map_err(|_| format!("fault reorder={value}: not a window size"))?;
                }
                "jitter_ms" => {
                    let ms: f64 = value
                        .parse()
                        .map_err(|_| format!("fault jitter_ms={value}: not a number"))?;
                    if ms < 0.0 {
                        return Err(format!("fault jitter_ms={value}: negative"));
                    }
                    spec.jitter = SimDuration::from_secs_f64(ms / 1000.0);
                }
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("fault seed={value}: not an integer"))?;
                }
                other => {
                    return Err(format!(
                        "unknown fault key `{other}` (drop, dup, reorder, truncate, corrupt, jitter_ms, seed)"
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// Runs the trace's records through [`FaultSpec::faulted`] and
    /// collects the faulted trace (same duration, records *not*
    /// re-sorted) with its ledger.
    pub fn apply_to_trace(&self, trace: &Trace) -> (Trace, FaultLedger) {
        let mut ledger = FaultLedger::default();
        let mut out = Trace::new(trace.duration());
        out.extend(self.faulted(trace.records().iter().copied(), &mut ledger));
        (out, ledger)
    }

    /// The fault pass over a record stream, in arrival order, tallied in
    /// `ledger`.
    ///
    /// Per record the draws are drop, then duplicate; per surviving copy
    /// jitter, then truncate, then corrupt. Copies fill a window of
    /// `reorder_window` records that is Fisher–Yates shuffled each time it
    /// fills, the final partial window at the end of the stream. A
    /// truncated copy (a `TraceRecord` cannot carry "unclassifiable")
    /// holds its window slot and is shed when the window spills.
    pub fn faulted<'a>(
        &self,
        records: impl Iterator<Item = TraceRecord> + 'a,
        ledger: &'a mut FaultLedger,
    ) -> impl Iterator<Item = TraceRecord> + 'a {
        let spec = *self;
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut records = records.fuse();
        // Each staged copy with whether truncation shed it. The window
        // grows as it fills: `reorder=` is user input, not an allocation.
        let mut window: Vec<(TraceRecord, bool)> = Vec::new();
        let mut spilled = VecDeque::new();
        std::iter::from_fn(move || {
            while spilled.is_empty() {
                let Some(record) = records.next() else {
                    // The stream ended: spill the final partial window.
                    spill_window(&mut window, &mut rng, ledger, &mut spilled);
                    break;
                };
                ledger.input_events += 1;
                if spec.drop > 0.0 && rng.chance(spec.drop) {
                    ledger.dropped += 1;
                    continue;
                }
                let copies = if spec.duplicate > 0.0 && rng.chance(spec.duplicate) {
                    ledger.duplicated += 1;
                    2
                } else {
                    1
                };
                for _ in 0..copies {
                    let mut faulted = record;
                    faulted.time = spec.jittered_time(&mut rng, faulted.time, ledger);
                    let truncated = spec.truncate > 0.0 && rng.chance(spec.truncate);
                    if truncated {
                        ledger.truncated += 1;
                    } else {
                        if spec.corrupt > 0.0 && rng.chance(spec.corrupt) {
                            faulted.kind = reroll_kind(&mut rng, faulted.kind);
                            ledger.corrupted += 1;
                        }
                        ledger.emitted_events += 1;
                    }
                    window.push((faulted, truncated));
                    if window.len() == spec.reorder_window.max(1) {
                        spill_window(&mut window, &mut rng, ledger, &mut spilled);
                    }
                }
            }
            spilled.pop_front()
        })
    }

    /// One jittered timestamp draw (no-op when jitter is off).
    fn jittered_time(&self, rng: &mut SimRng, time: SimTime, ledger: &mut FaultLedger) -> SimTime {
        if self.jitter.is_zero() {
            return time;
        }
        let j = self.jitter.as_micros();
        let offset = rng.uniform_u64(0, 2 * j + 1) as i64 - j as i64;
        if offset == 0 {
            return time;
        }
        ledger.jittered += 1;
        SimTime::from_micros(time.as_micros().saturating_add_signed(offset))
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::off()
    }
}

impl std::fmt::Display for FaultSpec {
    /// Renders the spec in the exact syntax [`FaultSpec::parse`] accepts,
    /// emitting only non-default keys (the off spec with seed 0 renders as
    /// the empty string), so `parse(&spec.to_string())` reconstructs the
    /// spec — the round-trip the property tests pin down.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.drop != 0.0 {
            parts.push(format!("drop={}", self.drop));
        }
        if self.duplicate != 0.0 {
            parts.push(format!("dup={}", self.duplicate));
        }
        if self.reorder_window != 0 {
            parts.push(format!("reorder={}", self.reorder_window));
        }
        if self.truncate != 0.0 {
            parts.push(format!("truncate={}", self.truncate));
        }
        if self.corrupt != 0.0 {
            parts.push(format!("corrupt={}", self.corrupt));
        }
        if !self.jitter.is_zero() {
            parts.push(format!(
                "jitter_ms={}",
                self.jitter.as_micros() as f64 / 1000.0
            ));
        }
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        f.write_str(&parts.join(","))
    }
}

/// Running tally of what a fault pass did to a record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultLedger {
    /// Records read from the input stream.
    pub input_events: u64,
    /// Records the faulted stream yields (after drops, duplicates and
    /// truncation).
    pub emitted_events: u64,
    /// Records removed by the drop fault.
    pub dropped: u64,
    /// Records the duplicate fault emitted a second copy of.
    pub duplicated: u64,
    /// Copies whose position changed inside a reorder window.
    pub reordered: u64,
    /// Copies truncated past classification and shed.
    pub truncated: u64,
    /// Copies whose kind was re-rolled by the corrupt fault.
    pub corrupted: u64,
    /// Copies whose timestamp moved under clock jitter.
    pub jittered: u64,
}

impl FaultLedger {
    /// A one-line human summary for CLI reports.
    pub fn summary(&self) -> String {
        format!(
            "{} events in, {} out: {} dropped, {} duplicated, {} reordered, {} truncated, {} corrupted, {} jittered",
            self.input_events,
            self.emitted_events,
            self.dropped,
            self.duplicated,
            self.reordered,
            self.truncated,
            self.corrupted,
            self.jittered
        )
    }
}

/// Re-rolls a segment kind to a uniformly random *different* kind.
fn reroll_kind(rng: &mut SimRng, kind: SegmentKind) -> SegmentKind {
    let pick = rng.uniform_u64(0, SegmentKind::ALL.len() as u64 - 1) as usize;
    let index = if pick >= kind.index() { pick + 1 } else { pick };
    SegmentKind::ALL[index]
}

/// Shuffles the staged window (Fisher–Yates), counts the copies that
/// moved, and queues the untruncated ones on `out`.
///
/// "Reordered" counts displaced records, not windows, so the ledger
/// reflects the actual perturbation magnitude.
fn spill_window(
    window: &mut Vec<(TraceRecord, bool)>,
    rng: &mut SimRng,
    ledger: &mut FaultLedger,
    out: &mut VecDeque<TraceRecord>,
) {
    if window.len() > 1 {
        let staged = window.clone();
        for i in (1..window.len()).rev() {
            let j = rng.uniform_u64(0, i as u64 + 1) as usize;
            window.swap(i, j);
        }
        ledger.reordered += window
            .iter()
            .zip(&staged)
            .filter(|(shuffled, original)| shuffled != original)
            .count() as u64;
    }
    out.extend(
        window
            .drain(..)
            .filter(|&(_, truncated)| !truncated)
            .map(|(record, _)| record),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_traffic::trace::Direction;

    fn sample_trace(n: u64) -> Trace {
        let records = (0..n)
            .map(|i| {
                TraceRecord::new(
                    SimTime::from_secs(i),
                    Direction::Outbound,
                    SegmentKind::Syn,
                    "10.1.0.5:1025".parse().unwrap(),
                    "192.0.2.80:80".parse().unwrap(),
                )
            })
            .collect();
        Trace::from_records(records, SimDuration::from_secs(n))
    }

    #[test]
    fn off_spec_is_identity() {
        let trace = sample_trace(1000);
        let spec = FaultSpec::off();
        assert!(spec.is_off());
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        assert_eq!(faulted, trace);
        let clean = FaultLedger {
            input_events: 1000,
            emitted_events: 1000,
            ..FaultLedger::default()
        };
        assert_eq!(ledger, clean);
    }

    #[test]
    fn drop_rate_holds_statistically_and_tallies_exactly() {
        let trace = sample_trace(10_000);
        let spec = FaultSpec {
            drop: 0.1,
            seed: 7,
            ..FaultSpec::off()
        };
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        assert_eq!(faulted.len() as u64, ledger.emitted_events);
        assert_eq!(ledger.input_events, 10_000);
        assert_eq!(ledger.dropped, 10_000 - ledger.emitted_events);
        let rate = ledger.dropped as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn duplicates_add_events_and_preserve_payload() {
        let trace = sample_trace(5_000);
        let spec = FaultSpec {
            duplicate: 0.2,
            seed: 11,
            ..FaultSpec::off()
        };
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        assert_eq!(faulted.len() as u64, 5_000 + ledger.duplicated);
        assert!(ledger.duplicated > 800, "duplicated {}", ledger.duplicated);
        // No other fault active: every record keeps its classification.
        assert!(faulted.records().iter().all(|r| r.kind == SegmentKind::Syn));
    }

    #[test]
    fn truncate_sheds_records_and_corrupt_rerolls_kinds() {
        let trace = sample_trace(5_000);
        let spec = FaultSpec {
            truncate: 0.5,
            seed: 13,
            ..FaultSpec::off()
        };
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        assert!(ledger.truncated > 2_000, "truncated {}", ledger.truncated);
        assert_eq!(faulted.len() as u64, 5_000 - ledger.truncated);
        assert_eq!(ledger.emitted_events, faulted.len() as u64);
        let spec = FaultSpec {
            corrupt: 0.5,
            seed: 13,
            ..FaultSpec::off()
        };
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        assert_eq!(faulted.len(), 5_000);
        let changed = faulted
            .records()
            .iter()
            .filter(|r| r.kind != SegmentKind::Syn)
            .count() as u64;
        assert_eq!(changed, ledger.corrupted);
        assert!(changed > 2_000);
    }

    #[test]
    fn reorder_permutes_within_windows_only() {
        let trace = sample_trace(256);
        let spec = FaultSpec {
            reorder_window: 8,
            seed: 17,
            ..FaultSpec::off()
        };
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        assert_eq!(faulted.len(), 256);
        let mut moved = 0;
        for (window_index, window) in faulted.records().chunks(8).enumerate() {
            let mut times: Vec<u64> = window.iter().map(|r| r.time.as_micros()).collect();
            times.sort_unstable();
            // Each window is a permutation of the original 8 records.
            let expected: Vec<u64> = (0..8)
                .map(|i| SimTime::from_secs((window_index * 8 + i) as u64).as_micros())
                .collect();
            assert_eq!(times, expected, "window {window_index} is a permutation");
            moved += window
                .iter()
                .zip(&expected)
                .filter(|(r, t)| r.time.as_micros() != **t)
                .count();
        }
        assert!(moved > 0, "shuffle must actually move records");
        assert_eq!(
            ledger.reordered, moved as u64,
            "ledger counts exactly the displaced records"
        );
    }

    #[test]
    fn a_window_past_the_trace_shuffles_it_once() {
        // `reorder=` comes from the command line: a window far larger
        // than the trace must not size an allocation.
        let trace = sample_trace(64);
        let spec = FaultSpec {
            reorder_window: usize::MAX,
            seed: 3,
            ..FaultSpec::off()
        };
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        let mut times: Vec<SimTime> = faulted.records().iter().map(|r| r.time).collect();
        times.sort_unstable();
        let expected: Vec<SimTime> = trace.records().iter().map(|r| r.time).collect();
        assert_eq!(times, expected, "the final partial window is a permutation");
        assert!(ledger.reordered > 0);
    }

    #[test]
    fn reordered_trace_keeps_arrival_order() {
        let trace = sample_trace(256);
        let spec = FaultSpec {
            reorder_window: 8,
            seed: 7,
            ..FaultSpec::off()
        };
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        assert!(ledger.reordered > 0);
        assert!(
            faulted
                .records()
                .windows(2)
                .any(|pair| pair[1].time < pair[0].time),
            "the faulted trace is not re-sorted"
        );
        assert_eq!(faulted.duration(), trace.duration());
    }

    #[test]
    fn jitter_moves_timestamps_within_bound() {
        let trace = sample_trace(2_000);
        let spec = FaultSpec {
            jitter: SimDuration::from_millis(5),
            seed: 19,
            ..FaultSpec::off()
        };
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        let mut moved = 0u64;
        for (i, record) in faulted.records().iter().enumerate() {
            let original = SimTime::from_secs(i as u64).as_micros() as i64;
            let delta = (record.time.as_micros() as i64 - original).abs();
            assert!(delta <= 5_000, "jitter {delta} exceeds bound");
            if delta != 0 {
                moved += 1;
            }
        }
        assert_eq!(moved, ledger.jittered);
        assert!(moved > 1_000);
    }

    #[test]
    fn spec_parser_round_trips_and_rejects_garbage() {
        let spec = FaultSpec::parse(
            "drop=0.05, dup=0.01,reorder=8,truncate=0.02,corrupt=0.03,jitter_ms=5,seed=42",
        )
        .unwrap();
        assert_eq!(spec.drop, 0.05);
        assert_eq!(spec.duplicate, 0.01);
        assert_eq!(spec.reorder_window, 8);
        assert_eq!(spec.truncate, 0.02);
        assert_eq!(spec.corrupt, 0.03);
        assert_eq!(spec.jitter, SimDuration::from_millis(5));
        assert_eq!(spec.seed, 42);
        assert!(!spec.is_off());
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::off());
        assert_eq!(
            FaultSpec::parse("duplicate=0.5").unwrap().duplicate,
            0.5,
            "long key accepted"
        );
        for bad in [
            "drop",         // not key=value
            "drop=1.5",     // probability out of range
            "drop=-0.1",    // negative probability
            "drop=abc",     // not a number
            "reorder=-1",   // not a window
            "jitter_ms=-2", // negative jitter
            "seed=1.5",     // not an integer
            "explode=0.5",  // unknown key
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn display_emits_only_non_default_keys() {
        assert_eq!(FaultSpec::off().to_string(), "");
        let spec = FaultSpec {
            drop: 0.05,
            reorder_window: 8,
            jitter: SimDuration::from_millis(5),
            seed: 42,
            ..FaultSpec::off()
        };
        assert_eq!(spec.to_string(), "drop=0.05,reorder=8,jitter_ms=5,seed=42");
        // Sub-millisecond jitter survives via a fractional jitter_ms.
        let fine = FaultSpec {
            jitter: SimDuration::from_micros(1500),
            ..FaultSpec::off()
        };
        assert_eq!(fine.to_string(), "jitter_ms=1.5");
        assert_eq!(FaultSpec::parse(&fine.to_string()).unwrap(), fine);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Display is the exact inverse of parse for every representable
        /// spec: probabilities anywhere in [0, 1] (f64 Display is the
        /// shortest round-tripping decimal), any window, any seed, and
        /// whole-microsecond jitter (jitter_ms accepts fractions).
        #[test]
        fn display_parse_round_trips(
            (millidrop, millidup, millitrunc, millicorrupt) in
                (0u32..=1000, 0u32..=1000, 0u32..=1000, 0u32..=1000),
            reorder_window in 0usize..64,
            jitter_us in 0u64..2_000_000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let spec = FaultSpec {
                drop: f64::from(millidrop) / 1000.0,
                duplicate: f64::from(millidup) / 1000.0,
                reorder_window,
                truncate: f64::from(millitrunc) / 1000.0,
                corrupt: f64::from(millicorrupt) / 1000.0,
                jitter: SimDuration::from_micros(jitter_us),
                seed,
            };
            let rendered = spec.to_string();
            let parsed = FaultSpec::parse(&rendered)
                .map_err(proptest::prelude::TestCaseError::fail)?;
            proptest::prop_assert_eq!(parsed, spec, "rendered as `{}`", rendered);
        }
    }

    #[test]
    fn trace_level_faults_match_ledger() {
        let trace = sample_trace(5_000);
        let spec = FaultSpec {
            drop: 0.1,
            duplicate: 0.05,
            truncate: 0.02,
            corrupt: 0.02,
            reorder_window: 16,
            jitter: SimDuration::from_millis(5),
            seed: 23,
        };
        let (faulted, ledger) = spec.apply_to_trace(&trace);
        assert_eq!(ledger.input_events, 5_000);
        assert_eq!(faulted.len() as u64, ledger.emitted_events);
        assert_eq!(
            ledger.emitted_events + ledger.truncated,
            ledger.input_events - ledger.dropped + ledger.duplicated
        );
        assert!(ledger.dropped > 300);
        assert!(ledger.truncated > 0, "truncate sheds records");
        assert!(ledger.reordered > 0 && ledger.jittered > 0);
        assert_eq!(faulted.duration(), trace.duration());
        // Same spec, same seed: the same faulted trace.
        let (again, ledger_again) = spec.apply_to_trace(&trace);
        assert_eq!(ledger, ledger_again);
        assert_eq!(faulted.records(), again.records());
    }

    #[test]
    fn reroll_never_returns_the_same_kind() {
        let mut rng = SimRng::seed_from_u64(5);
        for kind in SegmentKind::ALL {
            for _ in 0..100 {
                assert_ne!(reroll_kind(&mut rng, kind), kind);
            }
        }
    }
}
