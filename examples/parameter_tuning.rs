//! Exploring the (a, N) design space — §3.2's trade-off and §4.2.3's
//! site-specific tuning.
//!
//! ```text
//! cargo run --release -p syndog-cli --example parameter_tuning
//! ```
//!
//! Prints the theoretical f_min and detection-delay bound across the
//! parameter grid, then verifies the paper's tuned UNC deployment
//! (a = 0.2, N = 0.6) empirically: better sensitivity, still zero false
//! alarms.

use syndog::{
    expected_delay_periods, min_detectable_rate, PeriodCounts, SynDogConfig, SynDogDetector,
};
use syndog_sim::SimRng;
use syndog_traffic::SiteProfile;

fn main() {
    let site = SiteProfile::unc();
    let k = site.expected_k();
    let c = site.residual_mean();
    println!("UNC-like site: K = {k:.0} SYN/ACKs per period, residual c = {c:.3}\n");

    println!("theory (Eq. 7/8): f_min and delay bound at 2x f_min");
    println!("     a      N   f_min (SYN/s)   delay bound (periods)");
    for (a, n) in [
        (0.15, 0.45),
        (0.2, 0.6),
        (0.35, 1.05),
        (0.5, 1.5),
        (0.7, 2.1),
    ] {
        let f_min = min_detectable_rate(a, c, k, 20.0);
        let config = SynDogConfig::paper_default()
            .with_offset(a)
            .with_threshold(n);
        let bound = expected_delay_periods(&config, 2.0 * f_min, k, c);
        println!(
            "{a:>6.2} {n:>6.2}  {f_min:>13.1}   {}",
            bound
                .map(|b| format!("{b:.1}"))
                .unwrap_or_else(|| "-".into())
        );
    }

    // Empirical check: false alarms across the grid on clean traffic.
    println!("\nempirical false alarms over 10 clean 30-minute runs:");
    println!("     a      N   false alarm periods   max y_n");
    for (a, n) in [(0.1, 0.3), (0.2, 0.6), (0.35, 1.05)] {
        let config = SynDogConfig::paper_default()
            .with_offset(a)
            .with_threshold(n);
        let mut alarms = 0u64;
        let mut max_y = 0.0f64;
        for seed in 0..10 {
            let mut rng = SimRng::seed_from_u64(100 + seed);
            let counts = site.generate_period_counts(&mut rng);
            let mut dog = SynDogDetector::new(config);
            for sample in &counts {
                let d = dog.observe(PeriodCounts {
                    syn: sample.syn,
                    synack: sample.synack,
                });
                if d.alarm {
                    alarms += 1;
                }
                max_y = max_y.max(d.statistic);
            }
        }
        println!("{a:>6.2} {n:>6.2}   {alarms:>19}   {max_y:>7.3}");
    }
    println!(
        "\nthe paper's universal choice (a = 0.35, N = 1.05) keeps a wide \
         margin above every clean spike;\nsite-specific tuning (a = 0.2, \
         N = 0.6) trades some of that margin for f_min 37 -> ~15 SYN/s."
    );
}
