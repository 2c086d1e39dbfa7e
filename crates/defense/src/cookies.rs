//! SYN cookies — D. J. Bernstein's stateless handshake, reference \[3\].
//!
//! Instead of storing a half-open entry, the server encodes everything it
//! needs into the initial sequence number of its SYN/ACK:
//!
//! ```text
//! ISN = MAC(key, client, counter) ⊕ (counter << 3) ⊕ mss_index
//! ```
//!
//! and recovers it from the final ACK (`ack − 1 = ISN`). The price is the
//! paper's "state computation is required": a keyed hash per SYN *and*
//! per ACK, degraded TCP options (MSS quantized to a small table), and no
//! retransmission of the SYN/ACK. Per-connection state is zero, which the
//! `ablate-defenses` experiment shows flat under flood — but the victim
//! still burns CPU per spoofed SYN and, crucially, learns nothing about
//! where the flood comes from.

use std::net::SocketAddrV4;

use syndog_sim::SimTime;

use crate::resource::{Defense, DefenseVerdict};

/// The MSS table encoded in the cookie's low bits (RFC-style 3-bit
/// index). Values are the classical Linux choices.
pub const MSS_TABLE: [u16; 4] = [536, 1300, 1440, 1460];

/// How long a cookie remains acceptable, in counter ticks (one tick =
/// 64 s in Linux; we keep seconds configurable).
const COUNTER_WINDOW: u64 = 2;

/// Seconds per cookie counter tick.
const TICK_SECS: u64 = 64;

/// A small keyed mixer standing in for SipHash: xorshift-multiply over
/// the key and message words. Not cryptographically strong, but collision
/// behaviour is adequate for the simulation and it is dependency-free.
fn keyed_mac(key: u64, client: SocketAddrV4, counter: u64) -> u32 {
    let mut x = key ^ 0x9e37_79b9_7f4a_7c15;
    let mut mix = |v: u64| {
        x ^= v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = x.rotate_left(23).wrapping_mul(0x94d0_49bb_1331_11eb);
    };
    mix(u64::from(u32::from(*client.ip())));
    mix(u64::from(client.port()));
    mix(counter);
    (x ^ (x >> 32)) as u32
}

/// Computes the cookie ISN for a client at a counter tick with an MSS
/// table index.
pub fn make_cookie(key: u64, client: SocketAddrV4, counter: u64, mss_index: u8) -> u32 {
    debug_assert!((mss_index as usize) < MSS_TABLE.len());
    // Top 24 bits: MAC; next 6: counter mod 64; low 2: MSS index.
    let mac = keyed_mac(key, client, counter) & 0xffff_ff00;
    mac | ((counter as u32 & 0x3f) << 2) | u32::from(mss_index & 0x3)
}

/// Validates a cookie received in `ack − 1`; returns the recovered MSS on
/// success.
pub fn check_cookie(key: u64, client: SocketAddrV4, now_counter: u64, isn: u32) -> Option<u16> {
    let counter_bits = (isn >> 2) & 0x3f;
    let mss_index = (isn & 0x3) as usize;
    // The counter's low 6 bits are in the cookie; reconstruct candidates
    // within the acceptance window.
    for age in 0..=COUNTER_WINDOW {
        let candidate = now_counter.checked_sub(age)?;
        if candidate as u32 & 0x3f != counter_bits {
            continue;
        }
        let expected = make_cookie(key, client, candidate, mss_index as u8);
        if expected == isn {
            return Some(MSS_TABLE[mss_index]);
        }
    }
    None
}

/// A server protected by SYN cookies.
#[derive(Debug, Clone)]
pub struct SynCookieServer {
    key: u64,
    established: u64,
    synacks_sent: u64,
    rejected_acks: u64,
    /// Keyed-hash evaluations — the "state computation" cost.
    mac_evaluations: u64,
}

impl SynCookieServer {
    /// Creates a server with the given secret key.
    pub fn new(key: u64) -> Self {
        SynCookieServer {
            key,
            established: 0,
            synacks_sent: 0,
            rejected_acks: 0,
            mac_evaluations: 0,
        }
    }

    fn counter_at(now: SimTime) -> u64 {
        now.as_micros() / 1_000_000 / TICK_SECS
    }

    /// SYN/ACKs emitted so far.
    pub fn synacks_sent(&self) -> u64 {
        self.synacks_sent
    }

    /// ACKs that failed cookie validation.
    pub fn rejected_acks(&self) -> u64 {
        self.rejected_acks
    }

    /// Total keyed-hash evaluations — the per-packet CPU bill.
    pub fn mac_evaluations(&self) -> u64 {
        self.mac_evaluations
    }
}

impl Defense for SynCookieServer {
    fn on_syn(&mut self, now: SimTime, client: SocketAddrV4) -> DefenseVerdict {
        // Every SYN gets a SYN/ACK carrying a cookie; nothing is stored.
        self.mac_evaluations += 1;
        let _isn = make_cookie(self.key, client, Self::counter_at(now), 3);
        self.synacks_sent += 1;
        DefenseVerdict::SynAckSent
    }

    fn on_ack(&mut self, now: SimTime, client: SocketAddrV4, ack: u32) -> DefenseVerdict {
        self.mac_evaluations += 1;
        match check_cookie(self.key, client, Self::counter_at(now), ack.wrapping_sub(1)) {
            Some(_mss) => {
                self.established += 1;
                DefenseVerdict::Established
            }
            None => {
                self.rejected_acks += 1;
                DefenseVerdict::RstSent
            }
        }
    }

    fn on_rst(&mut self, _now: SimTime, _client: SocketAddrV4) {}

    fn state_bytes(&self) -> usize {
        0 // the whole point
    }

    fn established(&self) -> u64 {
        self.established
    }

    fn name(&self) -> &'static str {
        "syn cookies"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn client(n: u16) -> SocketAddrV4 {
        SocketAddrV4::new(
            std::net::Ipv4Addr::new(198, 51, 100, (n % 250) as u8 + 1),
            1000 + n,
        )
    }

    #[test]
    fn cookie_roundtrip_within_window() {
        let key = 0xdead_beef_cafe_f00d;
        for counter in [0u64, 1, 63, 64, 1000] {
            for mss_index in 0..4u8 {
                let isn = make_cookie(key, client(1), counter, mss_index);
                let mss =
                    check_cookie(key, client(1), counter, isn).expect("fresh cookie must validate");
                assert_eq!(mss, MSS_TABLE[mss_index as usize]);
                // Still valid one tick later.
                assert!(check_cookie(key, client(1), counter + 1, isn).is_some());
            }
        }
    }

    #[test]
    fn stale_cookie_rejected() {
        let key = 7;
        let isn = make_cookie(key, client(2), 100, 1);
        assert!(check_cookie(key, client(2), 100 + COUNTER_WINDOW + 1, isn).is_none());
    }

    #[test]
    fn cookie_bound_to_client_and_key() {
        let isn = make_cookie(1, client(3), 50, 2);
        assert!(
            check_cookie(1, client(4), 50, isn).is_none(),
            "other client"
        );
        assert!(check_cookie(2, client(3), 50, isn).is_none(), "other key");
    }

    #[test]
    fn forged_acks_almost_never_validate() {
        // An attacker who never saw the SYN/ACK must guess 24 MAC bits.
        let key = 0x1234_5678_9abc_def0;
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(9)
        };
        use rand::Rng;
        let hits = (0..50_000)
            .filter(|_| check_cookie(key, client(5), 10, rng.gen::<u32>()).is_some())
            .count();
        // Expected ≈ 50k · 3/2^24 ≈ 0.01; allow a little slack.
        assert!(hits <= 3, "{hits} forged cookies validated");
    }

    #[test]
    fn flood_leaves_state_at_zero() {
        let mut server = SynCookieServer::new(42);
        let t = SimTime::from_secs(5);
        for i in 0..20_000u32 {
            let spoofed = SocketAddrV4::new(std::net::Ipv4Addr::from(i | 0x0a00_0000), 6000);
            server.on_syn(t, spoofed);
        }
        assert_eq!(server.state_bytes(), 0);
        assert_eq!(server.synacks_sent(), 20_000);
        // But CPU was spent on every single spoofed SYN.
        assert_eq!(server.mac_evaluations(), 20_000);
    }

    #[test]
    fn legitimate_handshake_establishes() {
        let mut server = SynCookieServer::new(42);
        let t = SimTime::from_secs(70);
        assert_eq!(server.on_syn(t, client(6)), DefenseVerdict::SynAckSent);
        // The client echoes ISN+1 in its ACK. Recompute what the server
        // sent: counter at t=70s with 64 s ticks is 1.
        let isn = make_cookie(42, client(6), 1, 3);
        assert_eq!(
            server.on_ack(t, client(6), isn.wrapping_add(1)),
            DefenseVerdict::Established
        );
        assert_eq!(server.established(), 1);
        // A garbage ACK is refused.
        assert_eq!(
            server.on_ack(t, client(6), 0xdeadbeef),
            DefenseVerdict::RstSent
        );
        assert_eq!(server.rejected_acks(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The cookie hands back the MSS it was minted with, for arbitrary
        /// keys, clients and counters, at every age inside the window.
        #[test]
        fn cookie_roundtrip_recovers_mss(
            key in any::<u64>(),
            ip in any::<u32>(),
            port in 1u16..,
            counter in 0u64..1_000_000,
            mss_index in 0u8..4,
            age in 0..=COUNTER_WINDOW,
        ) {
            let client = SocketAddrV4::new(std::net::Ipv4Addr::from(ip), port);
            let isn = make_cookie(key, client, counter, mss_index);
            prop_assert_eq!(
                check_cookie(key, client, counter + age, isn),
                Some(MSS_TABLE[mss_index as usize])
            );
        }
    }
}
