//! Quickstart: detect a SYN flood hidden in realistic background traffic.
//!
//! ```text
//! cargo run --release -p syndog-cli --example quickstart
//! ```
//!
//! Generates 30 minutes of UNC-like background traffic, runs the SYN-dog
//! detector over it (no alarms), then injects a 60 SYN/s flood and shows
//! the CUSUM statistic climbing to the alarm.

use syndog::{PeriodCounts, SynDogConfig, SynDogDetector};
use syndog_attack::SynFlood;
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::{sites::OBSERVATION_PERIOD, SiteProfile};

fn main() {
    let site = SiteProfile::unc();
    let mut rng = SimRng::seed_from_u64(7);

    // 1. Clean background traffic: outgoing SYNs and incoming SYN/ACKs
    //    per 20 s observation period, as the two sniffers would report.
    let clean = site.generate_period_counts(&mut rng);
    let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
    let mut max_y = 0.0f64;
    for sample in &clean {
        let d = dog.observe(PeriodCounts {
            syn: sample.syn,
            synack: sample.synack,
        });
        assert!(!d.alarm, "clean traffic must not alarm");
        max_y = max_y.max(d.statistic);
    }
    println!(
        "clean run: {} periods, K ~= {:.0} SYN/ACKs/period, max y_n = {max_y:.3} (N = 1.05)",
        clean.len(),
        dog.k_average().unwrap_or(0.0),
    );

    // 2. Mix in a flood: 60 SYN/s for 10 minutes starting at t = 5 min.
    let mut flooded = site.generate_period_counts(&mut rng);
    let flood = SynFlood::constant(
        60.0,
        SimTime::from_secs(300),
        SimDuration::from_secs(600),
        "199.0.0.80:80".parse().unwrap(),
    );
    let flood_counts = flood.period_counts(flooded.len(), OBSERVATION_PERIOD, &mut rng);
    for (c, f) in flooded.iter_mut().zip(&flood_counts) {
        c.merge(*f);
    }

    // 3. Detect.
    let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
    println!("\nflooded run (flood starts at period 15):");
    for (i, sample) in flooded.iter().enumerate() {
        let d = dog.observe(PeriodCounts {
            syn: sample.syn,
            synack: sample.synack,
        });
        if (13..=22).contains(&i) {
            println!(
                "  period {i:>2}: syn = {:>5}, synack = {:>5}, X = {:>6.3}, y = {:>6.3} {}",
                sample.syn,
                sample.synack,
                d.x,
                d.statistic,
                if d.alarm { "<- ALARM" } else { "" }
            );
        }
        if d.alarm {
            let delay = i as u64 - 15;
            println!(
                "\nflood detected {delay} periods ({}s) after onset",
                delay * 20
            );
            return;
        }
    }
    println!("flood was not detected (unexpected at this rate)");
}
