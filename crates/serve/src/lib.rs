//! `syndog serve`: the long-running daemon subsystem.
//!
//! Every other mode in this workspace — detect, sniff, replay, fleet,
//! bakeoff — is a batch run that exits, but the paper's premise is an
//! agent *installed at the leaf router*, watching its stub network
//! indefinitely. This crate turns the reproduction into that system:
//!
//! - [`daemon::ServeDaemon`] — the supervisor loop. It hosts one or more
//!   [`SynDogAgent`](syndog_router::SynDogAgent)s, pulls one observation
//!   window of records at a time from a [`supply::RecordSupply`], closes
//!   periods on sim-time (hours of simulated operation in seconds of
//!   wall-clock), and enforces the *zero missed periods* invariant: after
//!   window `n` every router's period clock reads exactly `n + 1`.
//! - [`supply`] — where the records come from: a scripted multi-phase
//!   [`LoadPlan`](syndog_traffic::LoadPlan) over a calibrated
//!   [`SiteProfile`](syndog_traffic::SiteProfile) (k6-style ramps and
//!   pulses), a looping trace replay, or either overlaid with an injected
//!   flood window.
//! - [`rotate::CheckpointRotation`] — CRC-checked v4 checkpoints written
//!   atomically (temp file + rename) on an interval, pruned to a bounded
//!   retention, restored from the newest *valid* rotation slot — a
//!   truncated or corrupt newest file falls back to the previous slot.
//! - [`config`] — the watched operator config: detector kind, CUSUM
//!   threshold `N`, mitigation on/off. Edits apply at the next period
//!   boundary without a restart; parse errors keep the old config and
//!   are counted, never fatal.
//! - [`status`] — the operator status plane served beside the Prometheus
//!   scrape: per-stub uptime, current `y_n`, alarm state, engaged
//!   throttle keys, checkpoint age, missed-period count, as both
//!   plain text (`/status`) and JSON (`/status.json`).

pub mod config;
pub mod daemon;
pub mod rotate;
pub mod status;
pub mod supply;

pub use config::{ConfigWatcher, ServeConfig};
pub use daemon::{ServeDaemon, ServeSpec, StubSpec};
pub use rotate::CheckpointRotation;
pub use status::{StatusBoard, StatusSnapshot, StubStatus};
pub use supply::{FloodOverlay, LoopingTraceSupply, PlanSupply, RecordSupply};
