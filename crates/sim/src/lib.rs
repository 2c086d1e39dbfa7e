//! Simulated time, seeded randomness and deterministic parallelism for
//! the SYN-dog reproduction.
//!
//! The paper evaluates SYN-dog with trace-driven simulation; this crate
//! holds the pieces every generator and experiment shares:
//!
//! - `time` — microsecond-resolution [`SimTime`]/[`SimDuration`] newtypes,
//! - `rng` — seeded randomness plus the distributions the traffic models
//!   need (exponential, Pareto, log-normal, normal), implemented by inverse
//!   transform / Box–Muller so no external distribution crate is required,
//! - `stats` — the per-period [`TimeSeries`] behind every
//!   figure's CSV,
//! - `par` — deterministic index-addressed parallelism for fleet runs and
//!   experiment sweeps (results are bit-identical for any worker count).
//!
//! # Example
//!
//! ```
//! use syndog_sim::{SimDuration, SimTime};
//!
//! let t0 = SimDuration::from_secs(20);
//! let t = SimTime::ZERO + SimDuration::from_secs(45);
//! assert_eq!(t.period_index(t0), 2);
//! assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(45));
//! assert_eq!(t.as_secs_f64(), 45.0);
//! ```

mod par;
mod rng;
mod stats;
mod time;

pub use par::{run_indexed, run_indexed_fold, set_max_jobs, Parallelism};
pub use rng::{LogNormal, LogNormalDraw, SimRng};
pub use stats::TimeSeries;
pub use time::{SimDuration, SimTime};
