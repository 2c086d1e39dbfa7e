//! A distributed campaign viewed from many leaf routers at once.
//!
//! ```text
//! cargo run --release -p syndog-cli --example ddos_campaign
//! ```
//!
//! An attacker must flood a protected server at V = 14,000 SYN/s [8]. To
//! hide from first-mile detection they spread the load over A stub
//! networks, each hosting one slave (fi = V/A). This example sweeps A and
//! shows the fraction of Auckland-sized stub networks whose SYN-dog still
//! catches its local slave — reproducing the paper's point that hiding
//! from SYN-dog requires an implausible number of compromised networks.

use syndog::{PeriodCounts, SynDogConfig, SynDogDetector};
use syndog_attack::DdosCampaign;
use syndog_sim::{SimRng, SimTime};
use syndog_traffic::{sites::OBSERVATION_PERIOD, SiteProfile};

fn main() {
    let site = SiteProfile::auckland();
    println!(
        "victim needs V = 14,000 SYN/s; Auckland-sized stubs have f_min = {:.2} SYN/s",
        0.35 * site.expected_k() / 20.0
    );
    println!("(paper: up to A = 8,000 such stubs remain detectable)\n");
    println!("     A   fi=V/A  stubs alarmed (of 12 sampled)  mean delay (periods)");

    for stubs in [500usize, 2000, 6000, 8000, 12000] {
        let campaign = DdosCampaign::new(
            14_000.0,
            stubs,
            SimTime::from_secs(60 * 20),
            "199.0.0.80:80".parse().unwrap(),
        );
        // Simulate a sample of the campaign's stub networks, each with its
        // own background traffic and its own SYN-dog.
        let sample = 12;
        let mut alarmed = 0;
        let mut delays = Vec::new();
        for index in 0..sample {
            let mut rng = SimRng::seed_from_u64(9000 + stubs as u64 * 31 + index as u64);
            let mut counts = site.generate_period_counts(&mut rng);
            let slave = campaign.slave(index);
            let flood_counts = slave.period_counts(counts.len(), OBSERVATION_PERIOD, &mut rng);
            for (c, f) in counts.iter_mut().zip(&flood_counts) {
                c.merge(*f);
            }
            let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
            for (i, c) in counts.iter().enumerate() {
                let d = dog.observe(PeriodCounts {
                    syn: c.syn,
                    synack: c.synack,
                });
                if d.alarm && i >= 60 {
                    alarmed += 1;
                    delays.push((i - 60) as f64);
                    break;
                }
            }
        }
        let mean_delay = if delays.is_empty() {
            "-".to_string()
        } else {
            format!("{:.1}", delays.iter().sum::<f64>() / delays.len() as f64)
        };
        println!(
            "{stubs:>6}  {:>6.2}  {alarmed:>14} / {sample}               {mean_delay:>8}",
            campaign.per_network_rate()
        );
    }
    println!("\neach alarmed stub localizes its own slave — no IP traceback needed");
}
