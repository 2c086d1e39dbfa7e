//! TCP traffic substrate for the SYN-dog reproduction.
//!
//! The paper's evaluation is trace-driven: four packet traces (LBL 1994,
//! Harvard 1997, UNC 2000, Auckland 2000) provide normal background
//! traffic, and synthetic floods are mixed in. Those traces are not
//! redistributable, so this crate provides calibrated synthetic equivalents
//! plus everything needed to generate them:
//!
//! - [`arrival`] — connection arrival models: Poisson, Markov-modulated
//!   (MMPP), heavy-tailed Pareto on/off superposition (self-similar), and
//!   diurnal modulation,
//! - [`connection`] — the TCP three-way-handshake state machine with SYN
//!   loss, exponential-backoff retransmission and SYN/ACK loss — the
//!   mechanics behind the SYN–SYN/ACK pairing SYN-dog relies on,
//! - [`server`] — a victim TCP server with a finite backlog of half-open
//!   connections and the 75 s handshake timeout, for demonstrating what a
//!   flood actually does,
//! - [`trace`] — timestamped segment records, per-period aggregation,
//!   binary/CSV serialization, and a pcap bridge that synthesizes real
//!   packets,
//! - [`sites`] — the four calibrated site profiles ([`sites::SiteProfile`])
//!   matching the magnitudes reported in the paper's figures and the
//!   derived `K̄`/`f_min` values of its tables.
//!
//! # Example
//!
//! ```
//! use syndog_sim::SimRng;
//! use syndog_traffic::sites::SiteProfile;
//!
//! let mut rng = SimRng::seed_from_u64(7);
//! let unc = SiteProfile::unc();
//! let counts = unc.generate_period_counts(&mut rng);
//! assert_eq!(counts.len(), 90); // 30 minutes of 20 s periods
//! // The calibration target: K̄ ≈ 2114 SYN/ACKs per period.
//! let mean: f64 = counts.iter().map(|c| c.synack as f64).sum::<f64>() / 90.0;
//! assert!((1800.0..2500.0).contains(&mean));
//! ```

pub mod arrival;
pub mod connection;
pub mod load;
pub mod server;
pub mod sites;
pub mod trace;

pub use arrival::ArrivalModel;
pub use connection::ConnectionParams;
pub use load::{LoadPhase, LoadPlan};
pub use sites::SiteProfile;
pub use trace::{Direction, PeriodSample, RecordReader, Trace, TraceRecord};
