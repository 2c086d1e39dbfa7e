//! Property-based tests for the detection algorithms.

use proptest::prelude::*;

use syndog::NonParametricCusum;
use syndog::{PeriodCounts, SynDogConfig, SynDogDetector};

/// Reference implementation of Eq. 3: `y_n = S_n − min_{0≤k≤n} S_k` over
/// the offset series `X̃_k = X_k − a`, from the raw `X` series.
fn max_continuous_increment(series: &[f64], a: f64) -> f64 {
    let mut s = 0.0f64;
    let mut min_s = 0.0f64;
    for &x in series {
        s += x - a;
        min_s = min_s.min(s);
    }
    s - min_s
}

fn arb_series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-2.0f64..2.0, len)
}

proptest! {
    /// y_n is always non-negative.
    #[test]
    fn statistic_is_nonnegative(series in arb_series(1..200), a in -0.5f64..0.5) {
        let mut cusum = NonParametricCusum::new(a, 1.05);
        for x in series {
            prop_assert!(cusum.update(x).statistic >= 0.0);
        }
    }

    /// The iterative recursion (Eq. 2) equals the max-continuous-increment
    /// definition (Eq. 3) at every step.
    #[test]
    fn eq2_equals_eq3(series in arb_series(1..100), a in -0.5f64..0.5) {
        let mut cusum = NonParametricCusum::new(a, f64::MAX.sqrt());
        for i in 0..series.len() {
            let y = cusum.update(series[i]).statistic;
            let reference = max_continuous_increment(&series[..=i], a);
            prop_assert!((y - reference).abs() < 1e-9, "step {i}: {y} vs {reference}");
        }
    }

    /// Raising every observation by a constant never lowers the statistic
    /// (monotonicity in flood volume).
    #[test]
    fn statistic_monotone_in_input(series in arb_series(1..100), boost in 0.0f64..1.0) {
        let mut base = NonParametricCusum::new(0.35, 1.05);
        let mut boosted = NonParametricCusum::new(0.35, 1.05);
        for &x in &series {
            let y0 = base.update(x).statistic;
            let y1 = boosted.update(x + boost).statistic;
            prop_assert!(y1 >= y0 - 1e-12);
        }
    }

    /// A lower threshold can only alarm earlier, never later.
    #[test]
    fn lower_threshold_alarms_no_later(series in arb_series(1..150)) {
        let mut low = NonParametricCusum::new(0.35, 0.5);
        let mut high = NonParametricCusum::new(0.35, 1.5);
        for &x in &series {
            low.update(x);
            high.update(x);
        }
        match (low.first_alarm(), high.first_alarm()) {
            (None, Some(_)) => prop_assert!(false, "high threshold alarmed but low did not"),
            (Some(l), Some(h)) => prop_assert!(l <= h),
            _ => {}
        }
    }

    /// The K estimator stays within the range of its inputs.
    #[test]
    fn estimator_stays_in_input_hull(
        inputs in proptest::collection::vec(0u64..1_000_000, 1..100),
        alpha in 0.01f64..0.99,
    ) {
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default().with_alpha(alpha));
        let lo = inputs.iter().copied().min().unwrap() as f64;
        let hi = inputs.iter().copied().max().unwrap() as f64;
        for &synack in &inputs {
            dog.observe(PeriodCounts { syn: synack, synack });
            let est = dog.k_average().unwrap();
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
        }
    }

    /// Scaling a site's traffic uniformly leaves the normalized series and
    /// the detector's decisions unchanged (site-size independence).
    #[test]
    fn detector_scale_invariance(
        periods in proptest::collection::vec((100u64..2000, 100u64..2000), 5..40),
        scale in 2u64..50,
    ) {
        let mut small = SynDogDetector::new(SynDogConfig::paper_default());
        let mut large = SynDogDetector::new(SynDogConfig::paper_default());
        for &(syn, synack) in &periods {
            let ds = small.observe(PeriodCounts { syn, synack });
            let dl = large.observe(PeriodCounts { syn: syn * scale, synack: synack * scale });
            prop_assert!((ds.x - dl.x).abs() < 1e-6, "x diverged: {} vs {}", ds.x, dl.x);
            prop_assert_eq!(ds.alarm, dl.alarm);
        }
    }

    /// The detector never alarms while SYN counts do not exceed SYN/ACK
    /// counts (no flood, arbitrary load swings).
    #[test]
    fn no_alarm_without_excess_syns(
        loads in proptest::collection::vec(0u64..100_000, 1..200),
    ) {
        let mut dog = SynDogDetector::new(SynDogConfig::paper_default());
        for &load in &loads {
            let d = dog.observe(PeriodCounts { syn: load, synack: load });
            prop_assert!(!d.alarm);
            prop_assert_eq!(d.statistic, 0.0);
        }
    }

    /// Detector state after a reset is indistinguishable from a fresh one.
    #[test]
    fn reset_equals_fresh(
        first in proptest::collection::vec((0u64..5000, 0u64..5000), 1..30),
        second in proptest::collection::vec((0u64..5000, 0u64..5000), 1..30),
    ) {
        let config = SynDogConfig::paper_default();
        let mut reused = SynDogDetector::new(config);
        for &(syn, synack) in &first {
            reused.observe(PeriodCounts { syn, synack });
        }
        reused.reset();
        let mut fresh = SynDogDetector::new(config);
        for &(syn, synack) in &second {
            let a = reused.observe(PeriodCounts { syn, synack });
            let b = fresh.observe(PeriodCounts { syn, synack });
            prop_assert_eq!(a, b);
        }
    }
}
