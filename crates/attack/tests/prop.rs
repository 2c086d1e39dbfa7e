//! Property-based tests for the attack generators.

use proptest::prelude::*;
use syndog_attack::{DdosCampaign, FloodPattern, SpoofStrategy, SynFlood};
use syndog_net::is_unroutable_source;
use syndog_sim::{SimDuration, SimRng, SimTime};

fn victim() -> std::net::SocketAddrV4 {
    "199.0.0.80:80".parse().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flood volume tracks rate × duration within Poisson tolerance, for
    /// every pattern.
    #[test]
    fn flood_volume_matches_rate(
        rate in 1.0f64..200.0,
        duration in 60u64..600,
        pattern_index in 0usize..4,
        seed in any::<u64>(),
    ) {
        let pattern = [
            FloodPattern::Constant,
            FloodPattern::OnOff { on_secs: 10.0, off_secs: 10.0 },
            FloodPattern::Ramp,
            FloodPattern::Pulsed { pulse_secs: 3.0, interval_secs: 9.0 },
        ][pattern_index];
        let flood = SynFlood::constant(
            rate,
            SimTime::ZERO,
            SimDuration::from_secs(duration),
            victim(),
        )
        .with_pattern(pattern);
        let mut rng = SimRng::seed_from_u64(seed);
        let times = flood.generate_times(&mut rng);
        let expected = rate * duration as f64;
        // 6 sigma Poisson band plus 5% pattern-envelope slack.
        let tolerance = 6.0 * expected.sqrt() + 0.05 * expected;
        prop_assert!(
            ((times.len() as f64) - expected).abs() <= tolerance,
            "volume {} vs expected {expected}",
            times.len()
        );
        // All timestamps inside the flood window, sorted.
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(times.iter().all(|t| t.as_secs_f64() < duration as f64));
    }

    /// Unroutable spoofing never emits a routable source, for any seed.
    #[test]
    fn unroutable_spoofs_stay_unroutable(seed in any::<u64>(), n in 1u64..500) {
        let strategy = SpoofStrategy::RandomUnroutable;
        let mut rng = SimRng::seed_from_u64(seed);
        for i in 0..n {
            prop_assert!(is_unroutable_source(strategy.next_address(i, &mut rng)));
        }
    }

    /// Campaign slaves partition the total rate exactly.
    #[test]
    fn campaign_rate_partition(total in 1.0f64..20_000.0, stubs in 1usize..500) {
        let campaign = DdosCampaign::new(total, stubs, SimTime::ZERO, victim());
        let slaves = campaign.slaves();
        prop_assert_eq!(slaves.len(), stubs);
        let sum: f64 = slaves.iter().map(|s| s.rate).sum();
        prop_assert!((sum - total).abs() < 1e-6 * total.max(1.0));
        // MACs are unique across slaves (localization needs this).
        let mut macs: Vec<_> = slaves.iter().map(|s| s.attacker_mac).collect();
        macs.sort();
        macs.dedup();
        prop_assert_eq!(macs.len(), stubs.min(256 * 65536));
    }

    /// Period counts conserve the generated SYN volume (no bin loses or
    /// invents packets) when the horizon covers the flood.
    #[test]
    fn period_counts_conserve_volume(rate in 1.0f64..100.0, seed in any::<u64>()) {
        let flood = SynFlood::constant(
            rate,
            SimTime::from_secs(40),
            SimDuration::from_secs(300),
            victim(),
        );
        let mut rng_a = SimRng::seed_from_u64(seed);
        let mut rng_b = SimRng::seed_from_u64(seed);
        let times = flood.generate_times(&mut rng_a);
        let counts = flood.period_counts(100, SimDuration::from_secs(20), &mut rng_b);
        let total: u64 = counts.iter().map(|c| c.syn).sum();
        prop_assert_eq!(total, times.len() as u64);
    }
}
