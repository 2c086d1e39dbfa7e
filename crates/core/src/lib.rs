//! # syndog — SYN flooding source detection by non-parametric CUSUM
//!
//! This crate is the core contribution of *SYN-dog: Sniffing SYN Flooding
//! Sources* (Wang, Zhang, Shin — ICDCS 2002), reimplemented as a clean
//! library:
//!
//! - [`cusum`] — the non-parametric CUSUM sequential change detector
//!   (Eq. 2/4 of the paper): `y_n = (y_{n-1} + X_n - a)⁺`, alarm at
//!   `y_n ≥ N`,
//! - [`normalize`] — the recursive SYN/ACK average estimator `K̄`
//!   (Eq. 1) and the normalized difference `X_n = Δ_n / K̄`,
//! - [`detector`] — [`SynDogDetector`], the per-observation-period pipeline
//!   a leaf router runs: counts → normalization → CUSUM → decision,
//! - [`change`] — a general sequential [`ChangeDetector`] trait with
//!   baseline detectors (EWMA chart, Shewhart chart, sliding z-test,
//!   parametric CUSUM) for the ablation benchmarks,
//! - [`theory`] — the closed-form performance relations: detection-delay
//!   bound (Eq. 7), minimum detectable flooding rate `f_min` (Eq. 8), the
//!   exponential false-alarm law (Eq. 5), and the `A = V / f_min`
//!   hidden-source capacity from the paper's discussion,
//! - [`metrics`] — detection probability / delay / false-alarm summaries
//!   used by the evaluation harness,
//! - [`fin_pair`] — the companion mechanism (INFOCOM 2002): the same CUSUM
//!   over SYN–FIN pairs, usable where SYN/ACKs are not observable,
//! - [`strategy`] — the [`AnyDetector`] tagged union of pluggable
//!   strategies: the paper detector plus three competing strategies
//!   (SYN-count CUSUM, adaptive EWMA, SYN–FIN pairing) behind one
//!   interface, selectable at runtime and checkpointable.
//!
//! The detector is deliberately **stateless with respect to connections**:
//! its entire memory is three floats (`K̄`, `y_n`, and the period index),
//! which is what makes SYN-dog itself immune to flooding.
//!
//! # Quickstart
//!
//! ```
//! use syndog::{PeriodCounts, SynDogConfig, SynDogDetector};
//!
//! let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
//! // Normal periods: SYNs ≈ SYN/ACKs.
//! for _ in 0..30 {
//!     let d = dog.observe(PeriodCounts { syn: 1000, synack: 985 });
//!     assert!(!d.alarm);
//! }
//! // A flood adds 1200 unanswered SYNs per period.
//! let mut alarmed = false;
//! for _ in 0..10 {
//!     alarmed |= dog.observe(PeriodCounts { syn: 2200, synack: 985 }).alarm;
//! }
//! assert!(alarmed);
//! ```

pub mod change;
pub mod cusum;
pub mod detector;
pub mod fin_pair;
pub mod metrics;
pub mod normalize;
pub mod strategy;
pub mod theory;

pub use change::ChangeDetector;
pub use cusum::{CusumState, NonParametricCusum};
pub use detector::{Detection, PeriodCounts, SynDogConfig, SynDogDetector};
pub use fin_pair::{FinPairDetector, SynFinCounts};
pub use normalize::SynAckEstimator;
pub use strategy::{AnyDetector, DetectorKind, EwmaDetector, PeriodSignals, SynCountCusum};
