//! Property-based tests for simulated time and the distributions.

use proptest::prelude::*;
use syndog_sim::{SimDuration, SimRng, SimTime};

proptest! {
    /// Exponential draws are positive; Pareto draws respect the scale
    /// minimum; both for arbitrary valid parameters.
    #[test]
    fn distribution_supports(
        seed in any::<u64>(),
        rate in 0.01f64..100.0,
        xm in 0.01f64..10.0,
        alpha in 1.01f64..5.0,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.exponential(rate) >= 0.0);
            prop_assert!(rng.pareto(xm, alpha) >= xm);
            let p = rng.poisson(rate);
            prop_assert!(p < 10_000_000);
        }
    }

    /// SimTime arithmetic: (t + d) - t == d, and period indices are
    /// consistent with division.
    #[test]
    fn time_arithmetic(t in 0u64..1_000_000, d in 0u64..1_000_000, period in 1u64..100_000) {
        let base = SimTime::from_micros(t);
        let delta = SimDuration::from_micros(d);
        prop_assert_eq!((base + delta) - base, delta);
        prop_assert_eq!(base.period_index(SimDuration::from_micros(period)), t / period);
    }
}
