//! Integration: the defense bank facing a real generated flood, and
//! property tests on the SYN-cookie codec.

use proptest::prelude::*;
use syndog_attack::SynFlood;
use syndog_defense::{make_cookie, SynCookieServer};
use syndog_defense::{Defense, DefenseVerdict};
use syndog_defense::{ProxyConfig, SynProxy};
use syndog_defense::{Synkill, SynkillConfig};
use syndog_sim::{SimDuration, SimRng, SimTime};

fn spoofed(i: usize) -> std::net::SocketAddrV4 {
    std::net::SocketAddrV4::new(std::net::Ipv4Addr::from(0x0a00_0000 | i as u32), 6000)
}

#[test]
fn defense_bank_under_generated_flood() {
    let mut rng = SimRng::seed_from_u64(1);
    let flood = SynFlood::constant(
        1_000.0,
        SimTime::ZERO,
        SimDuration::from_secs(30),
        "199.0.0.80:80".parse().unwrap(),
    );
    let times = flood.generate_times(&mut rng);

    let mut cookies = SynCookieServer::new(7);
    let mut proxy = SynProxy::new(ProxyConfig::classic());
    let mut synkill = Synkill::new(SynkillConfig::classic());
    for (i, t) in times.iter().enumerate() {
        cookies.on_syn(*t, spoofed(i));
        proxy.on_syn(*t, spoofed(i));
        synkill.on_syn(*t, spoofed(i));
    }

    // Cookies: zero state regardless of volume.
    assert_eq!(cookies.state_bytes(), 0);
    // Proxy: every distinct spoofed source still within the 30 s timeout
    // occupies a slot — here all of them, since the flood lasts 30 s.
    assert!(
        proxy.state_bytes() > 100_000,
        "proxy state {}",
        proxy.state_bytes()
    );
    // Synkill: one classification entry per distinct spoofed address.
    assert!(
        synkill.state_bytes() > 100_000,
        "synkill state {}",
        synkill.state_bytes()
    );
    // And none of the three ever established anything for the flood.
    assert_eq!(
        cookies.established() + proxy.established() + synkill.established(),
        0
    );
}

#[test]
fn synkill_eventually_rsts_flood_addresses_that_repeat() {
    // Unlike random spoofing, a *fixed-list* spoofing attacker repeats
    // addresses; Synkill learns them as Bad and RSTs subsequent SYNs —
    // the one scenario where its per-address state pays off.
    let mut synkill = Synkill::new(SynkillConfig::classic());
    let addr = spoofed(1);
    assert_eq!(
        synkill.on_syn(SimTime::from_secs(0), addr),
        DefenseVerdict::Forwarded
    );
    // Judgment timeout passes without an ACK.
    synkill.sweep(SimTime::from_secs(13));
    for s in 14..20 {
        assert_eq!(
            synkill.on_syn(SimTime::from_secs(s), addr),
            DefenseVerdict::RstSent,
            "repeat spoof at t={s}"
        );
    }
}

/// The verdict of a cookie server keyed `key` on the handshake-completing
/// ACK (`isn + 1`) from `client` during cookie counter tick `counter`.
fn ack_at(key: u64, client: std::net::SocketAddrV4, counter: u64, isn: u32) -> DefenseVerdict {
    let now = SimTime::from_secs(counter * 64);
    SynCookieServer::new(key).on_ack(now, client, isn.wrapping_add(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Cookies round-trip for arbitrary clients, counters and MSS
    /// indices, and validation is stable within the window.
    #[test]
    fn cookie_roundtrip_holds(
        key in any::<u64>(),
        ip in any::<u32>(),
        port in 1u16..,
        counter in 0u64..1_000_000,
        mss_index in 0u8..4,
        age in 0u64..3,
    ) {
        let client = std::net::SocketAddrV4::new(std::net::Ipv4Addr::from(ip), port);
        let isn = make_cookie(key, client, counter, mss_index);
        prop_assert_eq!(
            ack_at(key, client, counter + age, isn),
            DefenseVerdict::Established
        );
    }

    /// Once the counter advances past the acceptance window the cookie
    /// is stale and never validates. Staleness stays below one full
    /// counter wrap (64) so the cookie's low-6-bit counter residue can
    /// never alias a candidate inside the window — rejection is exact,
    /// not probabilistic.
    #[test]
    fn stale_cookie_always_rejected(
        key in any::<u64>(),
        ip in any::<u32>(),
        port in 1u16..,
        counter in 0u64..1_000_000,
        mss_index in 0u8..4,
        staleness in 3u64..64,
    ) {
        let client = std::net::SocketAddrV4::new(std::net::Ipv4Addr::from(ip), port);
        let isn = make_cookie(key, client, counter, mss_index);
        prop_assert_eq!(
            ack_at(key, client, counter + staleness, isn),
            DefenseVerdict::RstSent
        );
    }

    /// A cookie minted under one key never validates under another.
    #[test]
    fn cookie_binds_key(
        key in any::<u64>(),
        other_key in any::<u64>(),
        ip in any::<u32>(),
        counter in 0u64..1000,
        mss_index in 0u8..4,
    ) {
        prop_assume!(key != other_key);
        let client = std::net::SocketAddrV4::new(std::net::Ipv4Addr::from(ip), 443);
        let isn = make_cookie(key, client, counter, mss_index);
        prop_assert_eq!(ack_at(other_key, client, counter, isn), DefenseVerdict::RstSent);
    }

    /// A cookie never validates for a different client address.
    #[test]
    fn cookie_binds_client(
        key in any::<u64>(),
        ip in any::<u32>(),
        other_ip in any::<u32>(),
        counter in 0u64..1000,
    ) {
        prop_assume!(ip != other_ip);
        let client = std::net::SocketAddrV4::new(std::net::Ipv4Addr::from(ip), 1000);
        let other = std::net::SocketAddrV4::new(std::net::Ipv4Addr::from(other_ip), 1000);
        let isn = make_cookie(key, client, counter, 1);
        prop_assert_eq!(ack_at(key, other, counter, isn), DefenseVerdict::RstSent);
    }
}
