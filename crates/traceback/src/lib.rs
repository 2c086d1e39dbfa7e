//! IP traceback — the expensive alternative SYN-dog exists to avoid.
//!
//! §1 of the paper: victim-side defenses "can not give any hint about the
//! SYN flooding sources, and hence, must rely on the expensive IP
//! traceback \[2, 20, 23, 26, 27, 32\] to trace the flooding sources",
//! whereas SYN-dog's first-mile placement makes an alarm *itself* the
//! localization. To make "expensive" a number rather than an adjective,
//! this crate implements the two canonical traceback families the paper
//! cites:
//!
//! - `ppm` — probabilistic packet marking with edge sampling (Savage et
//!   al., SIGCOMM 2000, reference \[23\]): routers overload an IP header
//!   field with edge marks at probability `p`; the victim reconstructs the
//!   attack path after collecting enough marked packets. Cost: thousands
//!   of *attack packets must reach the victim* before the path converges,
//!   and convergence is per-path — a DDoS with hundreds of sources
//!   multiplies it.
//! - `spie` — hash-based traceback (Snoeren et al., SIGCOMM 2001,
//!   reference \[27\]): every router keeps Bloom-filter digests of every
//!   packet it forwards; one attack packet suffices, but each router pays
//!   continuous memory proportional to its line rate. The Bloom filter is
//!   implemented from scratch in `bloom`.
//! - `topology` — the simulated router paths both schemes run over.
//!
//! The `ablate-traceback` experiment in `syndog-bench` compares both
//! against SYN-dog's detection delay and zero marginal cost.

mod bloom;
mod ppm;
mod spie;
mod topology;

pub use ppm::{expected_packets_to_converge, packets_until_traced};
pub use spie::SpieNetwork;
pub use topology::{AttackPath, RouterId};
