//! SYN-flood generation and DDoS campaign coordination.
//!
//! Models the attacker side of the paper's §4.2 experiments:
//!
//! - `flood` — a single flooding source with configurable temporal
//!   pattern (constant, on/off bursty, ramping, pulsed) and source-address
//!   spoofing strategy; produces either full [`Trace`]s or fast per-period
//!   counts,
//! - `ddos` — the master/slave coordination of a distributed attack:
//!   aggregate rate `V` split evenly across `A` stub networks so each
//!   SYN-dog sees only `f_i = V/A`, the paper's "hiding" strategy.
//!
//! [`Trace`]: syndog_traffic::Trace

mod ddos;
mod flood;

pub use ddos::DdosCampaign;
pub use flood::{FloodPattern, SpoofStrategy, SynFlood};
