//! The supervisor loop: hosts agents, closes periods on sim-time,
//! rotates checkpoints, applies hot-reloads, publishes status.
//!
//! One [`ServeDaemon::step_period`] call is one observation period of
//! simulated operation, for every hosted stub:
//!
//! 1. poll the watched config file; apply any change **at this period
//!    boundary** (detector swap via
//!    [`SynDogAgent::replace_detector`], mitigation arm/disarm),
//! 2. pull window `n` from the stub's [`RecordSupply`] and stream it
//!    through the agent (through the mitigation filter when armed),
//! 3. close periods up to `n + 1` and check the *missed-period
//!    invariant*: the router's period clock must land exactly on
//!    `n + 1` — any discrepancy is counted, never hidden,
//! 4. tally alarms into long-lived totals, then trim per-agent history
//!    so a daemon running for sim-weeks holds bounded state
//!    ([`ServeDaemon::state_footprint`] is the soak test's flatness
//!    probe),
//! 5. when the rotation interval elapses, write a consistent-cut
//!    checkpoint generation for all stubs (atomic, CRC-checked,
//!    retention-bounded),
//! 6. publish a fresh [`StatusSnapshot`] to the status plane.
//!
//! Crash recovery is the same loop entered through
//! [`ServeDaemon::resume_latest`]: the newest fully-valid checkpoint
//! generation restores every agent — learned `K̄`, CUSUM statistic,
//! alarm history, and *engaged throttles* — and the supply's
//! window-addressed determinism replays exactly the traffic the dead
//! process would have seen next.

use std::path::PathBuf;
use std::sync::Arc;

use syndog_router::{Checkpoint, CheckpointError, SynDogAgent};
use syndog_sim::{SimDuration, SimTime};
use syndog_telemetry::Telemetry;

use crate::config::{ConfigWatcher, ServeConfig};
use crate::rotate::CheckpointRotation;
use crate::status::{StatusBoard, StatusSnapshot, StubStatus};
use crate::supply::RecordSupply;

/// One stub network to host: its prefix and its traffic.
pub struct StubSpec {
    /// The stub prefix the agent watches.
    pub stub: syndog_net::Ipv4Net,
    /// Where the stub's records come from.
    pub supply: Box<dyn RecordSupply>,
}

/// Everything the daemon needs besides the stubs.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// The observation period `t0`.
    pub period: SimDuration,
    /// Initial operator config (overridden by the watched file's
    /// content once it appears).
    pub config: ServeConfig,
    /// Config file to watch for hot-reloads, if any.
    pub config_path: Option<PathBuf>,
    /// Checkpoint rotation directory; `None` disables rotation.
    pub checkpoint_dir: Option<PathBuf>,
    /// Periods between rotations.
    pub checkpoint_interval: u64,
    /// Generations retained on disk.
    pub checkpoint_keep: usize,
    /// Detection/alarm history entries kept per agent.
    pub history_keep: usize,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            period: SimDuration::from_secs(20),
            config: ServeConfig::default(),
            config_path: None,
            checkpoint_dir: None,
            checkpoint_interval: 15,
            checkpoint_keep: 4,
            history_keep: 256,
        }
    }
}

/// One hosted agent plus its supervisor-side accounting.
struct Hosted {
    agent: SynDogAgent,
    supply: Box<dyn RecordSupply>,
    /// Router period count when this process started (uptime base).
    start_period: u64,
    /// Alarms held in (trimmable) history after the last trim.
    alarm_baseline: usize,
    /// Alarms ever raised — survives history trims.
    alarms_total: u64,
    /// Missed-period invariant violations (must stay 0).
    missed: u64,
}

/// The long-running serve supervisor.
pub struct ServeDaemon {
    period: SimDuration,
    stubs: Vec<Hosted>,
    next_window: u64,
    config: ServeConfig,
    watcher: Option<ConfigWatcher>,
    rotation: Option<CheckpointRotation>,
    checkpoint_interval: u64,
    /// `(generation seq, period it was cut at)` of the last rotation.
    last_rotation: Option<(u64, u64)>,
    history_keep: usize,
    status: StatusBoard,
    resumed: bool,
}

impl ServeDaemon {
    /// Starts a fresh daemon over `stubs`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the checkpoint directory cannot be
    /// opened.
    pub fn new(spec: ServeSpec, stubs: Vec<StubSpec>) -> std::io::Result<ServeDaemon> {
        assert!(!stubs.is_empty(), "a daemon needs at least one stub");
        assert!(
            spec.checkpoint_interval > 0,
            "rotation interval must be positive"
        );
        let hosted = stubs
            .into_iter()
            .map(|stub| {
                let mut agent = SynDogAgent::with_detector(stub.stub, spec.config.build_detector());
                if spec.config.mitigation {
                    agent.set_mitigation(spec.config.build_policy());
                }
                Hosted {
                    agent,
                    supply: stub.supply,
                    start_period: 0,
                    alarm_baseline: 0,
                    alarms_total: 0,
                    missed: 0,
                }
            })
            .collect();
        let daemon = Self::assemble(spec, hosted, 0, false)?;
        daemon.publish_status();
        Ok(daemon)
    }

    /// Restores the daemon from the newest fully-valid checkpoint
    /// generation in `spec.checkpoint_dir`, resuming mid-run state —
    /// learned baselines, CUSUM statistics, alarm history, engaged
    /// throttles. Supplies in `stubs` must describe the same workload
    /// (stub order matters); detection state comes from the checkpoint,
    /// not from `spec.config`.
    ///
    /// # Errors
    ///
    /// - I/O errors opening the rotation directory,
    /// - [`CheckpointError`] (as `InvalidData`) when no generation is
    ///   fully valid or a restored agent's stub disagrees with its spec.
    pub fn resume_latest(spec: ServeSpec, stubs: Vec<StubSpec>) -> std::io::Result<ServeDaemon> {
        assert!(!stubs.is_empty(), "a daemon needs at least one stub");
        let dir = spec
            .checkpoint_dir
            .as_deref()
            .expect("resume requires a checkpoint directory");
        let rotation = CheckpointRotation::open(dir, spec.checkpoint_keep)?;
        let (seq, checkpoints) = rotation.latest_valid(stubs.len()).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "no fully-valid checkpoint generation to resume from",
            )
        })?;
        let invalid = |err: CheckpointError| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string())
        };
        let mut hosted = Vec::with_capacity(stubs.len());
        for (stub, checkpoint) in stubs.into_iter().zip(&checkpoints) {
            let agent = SynDogAgent::restore(checkpoint).map_err(invalid)?;
            if agent.router().stub() != stub.stub {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint stub {} does not match spec stub {}",
                        agent.router().stub(),
                        stub.stub
                    ),
                ));
            }
            hosted.push(Hosted {
                start_period: agent.router().current_period(),
                alarm_baseline: agent.alarms().len(),
                // History may have been trimmed before the cut; totals
                // restart from what the checkpoint retained.
                alarms_total: agent.alarms().len() as u64,
                missed: 0,
                agent,
                supply: stub.supply,
            });
        }
        // A generation is a consistent cut: every stub stopped at the
        // same period boundary.
        let next_window = hosted[0].agent.router().current_period();
        assert!(
            hosted
                .iter()
                .all(|h| h.agent.router().current_period() == next_window),
            "checkpoint generation is not a consistent cut"
        );
        // Adopt the restored posture as the in-force config so a later
        // hot-reload diff is computed against reality.
        let lead = &hosted[0].agent;
        let config = ServeConfig {
            detector: lead.detector().kind(),
            threshold: lead.detector().config().threshold,
            mitigation: lead.mitigation().is_some(),
            throttle_key: lead
                .mitigation()
                .map_or(syndog_router::KeyMode::Mac, |engine| {
                    engine.policy().key_mode
                }),
        };
        let spec = ServeSpec { config, ..spec };
        let mut daemon = Self::assemble(spec, hosted, next_window, true)?;
        daemon.last_rotation = Some((seq, next_window));
        daemon.publish_status();
        Ok(daemon)
    }

    fn assemble(
        spec: ServeSpec,
        stubs: Vec<Hosted>,
        next_window: u64,
        resumed: bool,
    ) -> std::io::Result<ServeDaemon> {
        let rotation = match &spec.checkpoint_dir {
            Some(dir) => Some(CheckpointRotation::open(dir, spec.checkpoint_keep)?),
            None => None,
        };
        let watcher = spec
            .config_path
            .as_deref()
            .map(|path| ConfigWatcher::new(path, spec.config));
        Ok(ServeDaemon {
            period: spec.period,
            stubs,
            next_window,
            config: spec.config,
            watcher,
            rotation,
            checkpoint_interval: spec.checkpoint_interval,
            last_rotation: None,
            history_keep: spec.history_keep,
            status: StatusBoard::new(),
            resumed,
        })
    }

    /// The shared status board (clone it into HTTP route handlers).
    pub fn status_board(&self) -> StatusBoard {
        self.status.clone()
    }

    /// The operator config currently in force.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Sim-time at the last closed period boundary.
    pub fn sim_now(&self) -> SimTime {
        SimTime::ZERO + self.period * self.next_window
    }

    /// The next window index the daemon will process.
    pub fn next_window(&self) -> u64 {
        self.next_window
    }

    /// Whether this process restored from a checkpoint.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Attaches a telemetry hub: every agent registers its per-stub
    /// labeled series on `hub`.
    pub fn attach_telemetry(&mut self, hub: &Arc<Telemetry>) {
        for hosted in &mut self.stubs {
            hosted.agent.set_stub_telemetry(Arc::clone(hub));
        }
    }

    /// The supervisor-held state in bytes — detection/alarm history and
    /// throttle tables. The soak test asserts this stays flat across
    /// the second half of a long run: nothing here may grow with
    /// sim-time.
    pub fn state_footprint(&self) -> usize {
        self.stubs
            .iter()
            .map(|hosted| {
                let agent = &hosted.agent;
                std::mem::size_of_val(agent.detections())
                    + std::mem::size_of_val(agent.alarms())
                    + agent.mitigation().map_or(0, |engine| engine.state_bytes())
            })
            .sum()
    }

    /// Runs one observation period for every stub. See the
    /// [module docs](self) for the step's phases.
    pub fn step_period(&mut self) {
        // (1) Hot-reload at the period boundary.
        if let Some(watcher) = &mut self.watcher {
            if let Some(config) = watcher.poll() {
                self.apply_config(config);
            }
        }
        let index = self.next_window;
        let target = index + 1;
        for hosted in &mut self.stubs {
            // (2) Stream this window's records through the agent.
            // An armed engine judges each record; without one this is
            // plain observation.
            for record in &hosted.supply.next_window(index, self.period) {
                hosted.agent.filter_record(record);
            }
            // (3) Close on sim-time and check the invariant.
            hosted.agent.close_periods_to(target);
            let closed = hosted.agent.router().current_period();
            hosted.missed += closed.abs_diff(target);
            // (4) Tally alarms, then bound history.
            let alarms = hosted.agent.alarms().len();
            hosted.alarms_total += alarms.saturating_sub(hosted.alarm_baseline) as u64;
            hosted.agent.trim_history(self.history_keep);
            hosted.alarm_baseline = hosted.agent.alarms().len();
        }
        self.next_window = target;
        // (5) Rotate a consistent-cut generation on the interval.
        if target.is_multiple_of(self.checkpoint_interval) {
            if let Some(rotation) = self.rotation.as_mut() {
                let checkpoints: Vec<Checkpoint> =
                    self.stubs.iter().map(|h| h.agent.checkpoint()).collect();
                if let Ok(seq) = rotation.rotate(&checkpoints) {
                    self.last_rotation = Some((seq, target));
                }
            }
        }
        // (6) Publish the fresh drill-down.
        self.publish_status();
    }

    /// Runs `periods` observation periods.
    pub fn run_for(&mut self, periods: u64) {
        for _ in 0..periods {
            self.step_period();
        }
    }

    /// Applies a hot-reloaded config: detector strategy/threshold swaps
    /// take effect at this period boundary; mitigation arms or disarms.
    fn apply_config(&mut self, config: ServeConfig) {
        let detector_changed =
            config.detector != self.config.detector || config.threshold != self.config.threshold;
        for hosted in &mut self.stubs {
            if detector_changed {
                hosted.agent.replace_detector(config.build_detector());
            }
            match (config.mitigation, hosted.agent.mitigation().is_some()) {
                (true, false) => hosted.agent.set_mitigation(config.build_policy()),
                (false, true) => hosted.agent.clear_mitigation(),
                _ => {}
            }
        }
        self.config = config;
    }

    /// The current drill-down snapshot (also published to the board).
    pub fn snapshot(&self) -> StatusSnapshot {
        let (checkpoint_seq, checkpoint_age) = match (&self.rotation, self.last_rotation) {
            (Some(_), Some((seq, at))) => (Some(seq), Some(self.next_window - at)),
            (Some(rotation), None) => (rotation.latest_seq(), None),
            _ => (None, None),
        };
        StatusSnapshot {
            sim_secs: self.sim_now().as_secs_f64(),
            period_secs: self.period.as_secs_f64(),
            checkpoint_seq,
            checkpoint_age_periods: checkpoint_age,
            config_reloads: self.watcher.as_ref().map_or(0, ConfigWatcher::reloads),
            config_errors: self
                .watcher
                .as_ref()
                .map_or(0, ConfigWatcher::reload_errors),
            resumed: self.resumed,
            stubs: self
                .stubs
                .iter()
                .map(|hosted| {
                    let agent = &hosted.agent;
                    let detector = agent.detector();
                    StubStatus {
                        stub: agent.router().stub().to_string(),
                        detector: detector.kind().name().to_string(),
                        supply: hosted.supply.describe(),
                        uptime_periods: agent
                            .router()
                            .current_period()
                            .saturating_sub(hosted.start_period),
                        periods_closed: agent.router().current_period(),
                        missed_periods: hosted.missed,
                        y_n: detector.statistic(),
                        threshold: detector.config().threshold,
                        k_average: detector.k_average(),
                        alarm: agent.detections().last().is_some_and(|d| d.alarm),
                        alarms_total: hosted.alarms_total,
                        mitigation: agent.mitigation().is_some(),
                        throttle_keys: agent
                            .mitigation()
                            .map(|engine| engine.keys().iter().map(ToString::to_string).collect())
                            .unwrap_or_default(),
                    }
                })
                .collect(),
        }
    }

    fn publish_status(&self) {
        self.status.publish(self.snapshot());
    }
}
