//! Closed-form performance relations from §3.2 and §4.2.3.
//!
//! These are the equations the paper uses to *choose* its parameters and to
//! argue about DDoS-scale coverage; the evaluation harness uses them both
//! to predict experiment outcomes and to annotate results.

use crate::detector::SynDogConfig;

/// The flooding threshold `N` that yields a target detection delay of
/// `target_periods` under Eq. 7, i.e. `N = target · (h − |c − a|)`.
///
/// With the paper's design point (`h = 2a = 0.7`, `c = 0`, target = 3
/// periods) this returns `N = 1.05`.
///
/// Returns `None` when `h ≤ |c − a|`.
pub fn threshold_for_delay(target_periods: f64, h: f64, c: f64, a: f64) -> Option<f64> {
    let drift = h - (c - a).abs();
    (drift > 0.0).then_some(target_periods * drift)
}

/// Eq. 8 — the lower bound of detection sensitivity as a SYN flooding
/// *rate* (packets per second):
///
/// ```text
/// f_min = (a − c) · K̄ / t0
/// ```
///
/// where `K̄` is the average SYN/ACK count per observation period and `t0`
/// the observation period in seconds. A flood below this rate never gives
/// `X_n` positive drift and is invisible regardless of patience; one just
/// above it is caught, only slowly.
///
/// # Panics
///
/// Panics if `t0` is not strictly positive.
pub fn min_detectable_rate(a: f64, c: f64, k_average: f64, t0_secs: f64) -> f64 {
    assert!(
        t0_secs > 0.0,
        "observation period must be positive, got {t0_secs}"
    );
    ((a - c) * k_average / t0_secs).max(0.0)
}

/// Expected detection delay in observation periods for a flood of rate
/// `flood_rate` (SYN/s) at a site with average SYN/ACK count `k_average`
/// per period of `t0_secs`, with residual normal mean `c`:
/// the CUSUM climbs `f·t0/K̄ + c − a` per period, so
///
/// ```text
/// delay ≈ N / (f·t0/K̄ + c − a)
/// ```
///
/// Returns `None` for floods at or below the detectable bound.
pub fn expected_delay_periods(
    config: &SynDogConfig,
    flood_rate: f64,
    k_average: f64,
    c: f64,
) -> Option<f64> {
    let per_period = flood_rate * config.observation_period_secs / k_average.max(1.0);
    let drift = per_period + c - config.offset;
    (drift > 0.0).then(|| config.threshold / drift)
}

/// §4.2.3 — the largest number of stub networks `A` a DDoS attacker can
/// spread a flood of aggregate rate `total_rate` (SYN/s) across while every
/// per-network share `f_i = V/A` still meets or exceeds `f_min`:
///
/// ```text
/// A = ⌊ V / f_min ⌋
/// ```
///
/// With `V = 14,000` (the rate needed to disable a protected server \[8\])
/// and UNC's `f_min = 37`, this is 378 stub networks; at Auckland's
/// `f_min = 1.75` it is 8,000.
///
/// Returns `None` if `f_min` is not strictly positive.
pub fn max_hidden_stub_networks(total_rate: f64, f_min: f64) -> Option<u64> {
    (f_min > 0.0).then(|| (total_rate / f_min).floor() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn paper_design_point_yields_n_1_05() {
        // h = 2a = 0.7, c = 0, target 3 periods → N = 3 · (0.7 − 0.35).
        let n = threshold_for_delay(3.0, 0.7, 0.0, 0.35).unwrap();
        assert!((n - 1.05).abs() < EPS);
    }

    #[test]
    fn vacuous_bounds_are_none() {
        assert!(threshold_for_delay(3.0, 0.35, 0.0, 0.35).is_none());
    }

    #[test]
    fn unc_min_rate_is_about_37() {
        // Paper: "the lower detection bound is about 37 SYNs per second" at
        // UNC with a = 0.35, c ≈ 0, t0 = 20 s ⇒ K̄ ≈ 2114.
        let f_min = min_detectable_rate(0.35, 0.0, 2114.0, 20.0);
        assert!((f_min - 37.0).abs() < 0.1, "f_min = {f_min}");
    }

    #[test]
    fn auckland_min_rate_is_about_1_75() {
        let f_min = min_detectable_rate(0.35, 0.0, 100.0, 20.0);
        assert!((f_min - 1.75).abs() < 0.01, "f_min = {f_min}");
    }

    #[test]
    fn tuned_parameters_lower_unc_bound_toward_15() {
        // §4.2.3: a 0.35 → 0.2 drops f_min from 37 to 15 SYN/s (the
        // residual c ≈ 0.058 accounts for the remainder).
        let f_min = min_detectable_rate(0.2, 0.058, 2114.0, 20.0);
        assert!((f_min - 15.0).abs() < 0.1, "f_min = {f_min}");
    }

    #[test]
    fn min_rate_clamps_at_zero_when_c_exceeds_a() {
        assert_eq!(min_detectable_rate(0.2, 0.5, 1000.0, 20.0), 0.0);
    }

    #[test]
    fn expected_delay_matches_paper_unc_cases() {
        let config = SynDogConfig::paper_default();
        let k = 2114.0;
        let c = 0.05;
        // fi = 60: drift = 60·20/2114 + 0.05 − 0.35 ≈ 0.2677 → ~3.9 periods
        // (paper measured 4).
        let d60 = expected_delay_periods(&config, 60.0, k, c).unwrap();
        assert!((3.0..5.0).contains(&d60), "d60 = {d60}");
        // fi = 80: ≈ 2.3 periods (paper measured 2).
        let d80 = expected_delay_periods(&config, 80.0, k, c).unwrap();
        assert!((1.8..3.0).contains(&d80), "d80 = {d80}");
        // fi = 45: ≈ 8.3 periods (paper measured 8.65).
        let d45 = expected_delay_periods(&config, 45.0, k, c).unwrap();
        assert!((7.0..11.0).contains(&d45), "d45 = {d45}");
        // Monotone: faster floods detected sooner.
        assert!(d80 < d60 && d60 < d45);
    }

    #[test]
    fn expected_delay_none_below_bound() {
        let config = SynDogConfig::paper_default();
        assert!(expected_delay_periods(&config, 30.0, 2114.0, 0.0).is_none());
    }

    #[test]
    fn ddos_coverage_matches_discussion() {
        // V = 14,000 SYN/s against a protected server [8].
        assert_eq!(max_hidden_stub_networks(14_000.0, 37.0), Some(378));
        assert_eq!(max_hidden_stub_networks(14_000.0, 1.75), Some(8_000));
        assert_eq!(max_hidden_stub_networks(14_000.0, 0.0), None);
    }
}
