//! What the flood does to the victim — and why first-mile detection
//! matters.
//!
//! ```text
//! cargo run --release -p syndog-cli --example victim_impact
//! ```
//!
//! Replays a 500 SYN/s spoofed flood (the paper's unprotected-server
//! threshold [8]) against a classic 1024-entry backlog with the 75 s
//! half-open timeout, interleaved with legitimate clients. Shows backlog
//! occupancy pinning at capacity and the legitimate drop rate, then the
//! SYN-dog detection timeline at the *attacker's* leaf router.

use syndog::{PeriodCounts, SynDogConfig, SynDogDetector};
use syndog_attack::SynFlood;
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::{sites::OBSERVATION_PERIOD, SiteProfile};
use syndog_traffic::{BacklogConfig, SynVerdict, VictimServer};

fn main() {
    // --- Victim side -----------------------------------------------------
    let mut server = VictimServer::new(BacklogConfig::classic());
    let mut rng = SimRng::seed_from_u64(3);
    let flood = SynFlood::constant(
        500.0,
        SimTime::from_secs(30),
        SimDuration::from_secs(120),
        "199.0.0.80:80".parse().unwrap(),
    );
    let mut events: Vec<(SimTime, bool, std::net::SocketAddrV4)> = Vec::new();
    for (i, t) in flood.generate_times(&mut rng).into_iter().enumerate() {
        let spoofed = std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
            2000 + (i % 60000) as u16,
        );
        events.push((t, false, spoofed));
    }
    // Legitimate clients: 20 connections/s throughout.
    for i in 0..(180 * 20) {
        let t = SimTime::from_secs_f64(i as f64 / 20.0);
        let client = std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::new(198, 51, (i / 250) as u8, (i % 250) as u8 + 1),
            40000,
        );
        events.push((t, true, client));
    }
    events.sort_by_key(|e| e.0);

    let mut legit_total = 0u64;
    let mut legit_dropped = 0u64;
    let mut last_report = 0u64;
    println!("time   backlog   legit drop rate");
    for (t, legit, client) in events {
        let verdict = server.on_syn(t, client);
        if legit {
            legit_total += 1;
            if verdict == SynVerdict::Dropped {
                legit_dropped += 1;
            } else {
                // Legitimate client completes the handshake promptly.
                server.on_ack(t + SimDuration::from_millis(120), client);
            }
        }
        let secs = t.as_secs_f64() as u64;
        if secs >= last_report + 20 {
            last_report = secs;
            println!(
                "{secs:>4}s  {:>7}   {:>5.1}%",
                server.backlog_occupancy(),
                100.0 * legit_dropped as f64 / legit_total.max(1) as f64
            );
        }
    }
    let stats = server.stats();
    println!(
        "\nvictim: {} SYNs, {} dropped, backlog high-water {} / {}\n",
        stats.syn_received,
        stats.syn_dropped,
        stats.max_backlog,
        server.config().capacity
    );

    // --- Attacker's leaf router ------------------------------------------
    // The same flood leaves through some stub network; its SYN-dog sees it
    // against Harvard-sized background traffic.
    let site = SiteProfile::harvard();
    let mut rng = SimRng::seed_from_u64(4);
    let mut counts = site.generate_period_counts(&mut rng);
    let fc = flood.period_counts(counts.len(), OBSERVATION_PERIOD, &mut rng);
    for (c, f) in counts.iter_mut().zip(&fc) {
        c.merge(*f);
    }
    let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
    for (i, c) in counts.iter().enumerate() {
        let d = dog.observe(PeriodCounts {
            syn: c.syn,
            synack: c.synack,
        });
        if d.alarm {
            println!(
                "SYN-dog at the attacker's leaf router alarms at period {i} \
                 (flood began in period 1): the source is localized while the \
                 victim is still under attack"
            );
            return;
        }
    }
    println!("flood not detected at the first mile (unexpected)");
}
