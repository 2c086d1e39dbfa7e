//! Victim-side SYN-flood defenses — the *stateful* prior art SYN-dog
//! positions itself against.
//!
//! §1 of the paper: "Most of previous work in countering SYN flooding
//! attacks focused on mitigating the flooding effect on the victim, such
//! as Syn cookies \[3\], SynDefender \[6\], Syn proxying \[19\] and Synkill
//! \[24\]. All of these defense mechanisms are stateful … which makes the
//! defense mechanism itself vulnerable to SYN flooding attacks.
//! Moreover, \[they\] can not give any hint about the SYN flooding sources."
//!
//! This crate implements those baselines so the claim is measurable:
//!
//! - `cookies` — Linux-style SYN cookies: connection state folded into
//!   the server's initial sequence number, recovered from the final ACK,
//! - `proxy` — a SYN proxy / SynDefender-style firewall that completes
//!   handshakes on the server's behalf and keeps per-connection state,
//! - `synkill` — a Synkill-style active monitor classifying source
//!   addresses and RST-ing half-open connections from bad ones,
//! - `resource` — the [`Defense`] trait and memory
//!   accounting used by the `ablate-defenses` experiment to plot state
//!   growth against flood volume (SYN-dog: O(1); proxy/synkill: O(flood)).

mod cookies;
mod proxy;
mod resource;
mod synkill;

pub use cookies::{make_cookie, SynCookieServer};
pub use proxy::{ProxyConfig, SynProxy};
pub use resource::{Defense, DefenseVerdict, HALF_OPEN_ENTRY_BYTES};
pub use synkill::{Synkill, SynkillConfig};
