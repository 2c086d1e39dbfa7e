//! Statistical validation of the traffic substrate: the properties the
//! paper's argument rests on, measured on generated traffic at scale.

use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::arrival::{ArrivalModel, MmppArrivals, ParetoOnOffArrivals, PoissonArrivals};
use syndog_traffic::sites::SiteProfile;

/// Estimates the Hurst exponent of a series by rescaled-range (R/S)
/// analysis.
///
/// The series is divided into blocks of several sizes; for each size the
/// mean R/S statistic is computed, and the exponent is the slope of
/// log(R/S) against log(size) by least squares. Values near 0.5 indicate
/// short-range dependence; self-similar traffic shows 0.7–0.9.
///
/// Returns `None` for series shorter than 32 points or without variation.
fn hurst_rs(series: &[f64]) -> Option<f64> {
    if series.len() < 32 {
        return None;
    }
    let mut points = Vec::new();
    let mut size = 8usize;
    while size <= series.len() / 2 {
        let mut rs_values = Vec::new();
        for block in series.chunks_exact(size) {
            if let Some(rs) = rescaled_range(block) {
                rs_values.push(rs);
            }
        }
        if !rs_values.is_empty() {
            let mean_rs = rs_values.iter().sum::<f64>() / rs_values.len() as f64;
            if mean_rs > 0.0 {
                points.push(((size as f64).ln(), mean_rs.ln()));
            }
        }
        size *= 2;
    }
    if points.len() < 2 {
        return None;
    }
    Some(least_squares_slope(&points))
}

fn rescaled_range(block: &[f64]) -> Option<f64> {
    let n = block.len() as f64;
    let mean = block.iter().sum::<f64>() / n;
    let std = (block.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt();
    if std == 0.0 {
        return None;
    }
    let mut cumulative = 0.0;
    let mut max_dev: f64 = f64::NEG_INFINITY;
    let mut min_dev: f64 = f64::INFINITY;
    for &x in block {
        cumulative += x - mean;
        max_dev = max_dev.max(cumulative);
        min_dev = min_dev.min(cumulative);
    }
    Some((max_dev - min_dev) / std)
}

fn least_squares_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Sample autocorrelation of a series at the given lag.
///
/// Returns 0 for series shorter than `lag + 2` or with zero variance.
fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    if series.len() < lag + 2 {
        return 0.0;
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|x| (x - mean).powi(2)).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let numer: f64 = (0..n - lag)
        .map(|i| (series[i] - mean) * (series[i + lag] - mean))
        .sum();
    numer / denom
}

fn bin_per_second(arrivals: &[SimTime], duration_secs: usize) -> Vec<f64> {
    let mut bins = vec![0.0; duration_secs];
    for t in arrivals {
        let idx = t.as_secs_f64() as usize;
        if idx < bins.len() {
            bins[idx] += 1.0;
        }
    }
    bins
}

#[test]
fn autocorrelation_of_iid_is_near_zero() {
    let mut rng = SimRng::seed_from_u64(1);
    let series: Vec<f64> = (0..5000).map(|_| rng.standard_normal()).collect();
    assert!(autocorrelation(&series, 1).abs() < 0.05);
    assert!(autocorrelation(&series, 10).abs() < 0.05);
}

#[test]
fn autocorrelation_of_persistent_series_is_high() {
    // AR(1) with phi = 0.9.
    let mut rng = SimRng::seed_from_u64(2);
    let mut series = vec![0.0f64];
    for _ in 0..5000 {
        let prev = *series.last().unwrap();
        series.push(0.9 * prev + rng.standard_normal());
    }
    assert!(autocorrelation(&series, 1) > 0.85);
}

#[test]
fn autocorrelation_degenerate_inputs() {
    assert_eq!(autocorrelation(&[], 1), 0.0);
    assert_eq!(autocorrelation(&[1.0, 1.0, 1.0, 1.0], 1), 0.0); // zero variance
    assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0); // lag too large
}

#[test]
fn poisson_counts_are_uncorrelated() {
    let mut rng = SimRng::seed_from_u64(3);
    let arrivals = PoissonArrivals::new(30.0).generate(SimDuration::from_secs(2000), &mut rng);
    let bins = bin_per_second(&arrivals, 2000);
    assert!(autocorrelation(&bins, 1).abs() < 0.05);
}

#[test]
fn mmpp_counts_are_bursty() {
    let mut rng = SimRng::seed_from_u64(5);
    let model = MmppArrivals::bursty(10.0, 10.0, 60.0, 20.0);
    let arrivals = model.generate(SimDuration::from_secs(4000), &mut rng);
    let bins = bin_per_second(&arrivals, 4000);
    // Strong positive short-lag correlation distinguishes MMPP from
    // Poisson.
    assert!(autocorrelation(&bins, 1) > 0.4);
}

#[test]
fn hurst_of_white_noise_is_near_half() {
    let mut rng = SimRng::seed_from_u64(3);
    let series: Vec<f64> = (0..4096).map(|_| rng.standard_normal()).collect();
    let h = hurst_rs(&series).unwrap();
    assert!((0.4..0.65).contains(&h), "white noise hurst {h}");
}

#[test]
fn hurst_of_integrated_noise_is_high() {
    // A random walk's increments are maximally persistent when the walk
    // itself is fed to R/S analysis.
    let mut rng = SimRng::seed_from_u64(4);
    let mut level = 0.0;
    let series: Vec<f64> = (0..4096)
        .map(|_| {
            level += rng.standard_normal();
            level
        })
        .collect();
    let h = hurst_rs(&series).unwrap();
    assert!(h > 0.8, "random walk hurst {h}");
}

#[test]
fn hurst_rejects_short_or_flat_series() {
    assert_eq!(hurst_rs(&[1.0; 10]), None);
    assert_eq!(hurst_rs(&[2.5; 64]), None);
}

#[test]
fn pareto_on_off_rate_and_self_similarity() {
    let mut rng = SimRng::seed_from_u64(6);
    let model = ParetoOnOffArrivals::new(64, 4.0, 2.0, 6.0, 1.4);
    assert!((model.mean_rate() - 64.0).abs() < 1e-9);
    let arrivals = model.generate(SimDuration::from_secs(4096), &mut rng);
    let rate = arrivals.len() as f64 / 4096.0;
    assert!((rate / 64.0 - 1.0).abs() < 0.25, "rate {rate}");
    let bins = bin_per_second(&arrivals, 4096);
    let h = hurst_rs(&bins).unwrap();
    // Theory: H = (3 − 1.4)/2 = 0.8; accept a generous band but insist
    // it is clearly above the short-range 0.5.
    assert!(h > 0.65, "hurst {h}");
}

#[test]
fn poisson_hurst_is_lower_than_pareto_on_off() {
    let mut rng = SimRng::seed_from_u64(7);
    let poisson = PoissonArrivals::new(64.0).generate(SimDuration::from_secs(4096), &mut rng);
    let onoff = ParetoOnOffArrivals::new(64, 4.0, 2.0, 6.0, 1.4)
        .generate(SimDuration::from_secs(4096), &mut rng);
    let hp = hurst_rs(&bin_per_second(&poisson, 4096)).unwrap();
    let ho = hurst_rs(&bin_per_second(&onoff, 4096)).unwrap();
    assert!(ho > hp + 0.1, "poisson {hp}, on/off {ho}");
}

fn syn_series(site: &SiteProfile, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(seed);
    site.generate_period_counts(&mut rng)
        .iter()
        .map(|c| c.syn as f64)
        .collect()
}

fn normalized_delta_series(site: &SiteProfile, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(seed);
    let counts = site.generate_period_counts(&mut rng);
    let mean_synack: f64 =
        counts.iter().map(|c| c.synack as f64).sum::<f64>() / counts.len() as f64;
    counts
        .iter()
        .map(|c| (c.syn as f64 - c.synack as f64) / mean_synack)
        .collect()
}

#[test]
fn auckland_is_longer_range_dependent_than_unc() {
    // Auckland runs on a Pareto-on/off superposition, UNC on an MMPP;
    // the Hurst ordering must reflect that.
    let mut auckland_h = Vec::new();
    for seed in 0..4 {
        if let Some(h) = hurst_rs(&syn_series(&SiteProfile::auckland(), seed)) {
            auckland_h.push(h);
        }
    }
    let mean_auckland = auckland_h.iter().sum::<f64>() / auckland_h.len() as f64;
    assert!(mean_auckland > 0.6, "Auckland hurst {mean_auckland}");
}

#[test]
fn per_period_counts_are_positively_autocorrelated_at_bursty_sites() {
    // MMPP dwell times (120 s / 30 s) span several 20 s periods, so
    // adjacent periods share the chain state.
    let series = syn_series(&SiteProfile::unc(), 11);
    let r1 = autocorrelation(&series, 1);
    assert!(r1 > 0.2, "UNC lag-1 autocorrelation {r1}");
}

#[test]
fn normalized_difference_mean_matches_profile_residual() {
    // The X_n series' empirical mean must track the analytically derived
    // residual c — the calibration the whole evaluation depends on.
    for (site, seeds) in [
        (SiteProfile::unc(), 0..6u64),
        (SiteProfile::auckland(), 0..6u64),
    ] {
        let mut means = Vec::new();
        for seed in seeds {
            let xs = normalized_delta_series(&site, seed);
            means.push(xs.iter().sum::<f64>() / xs.len() as f64);
        }
        let mean = means.iter().sum::<f64>() / means.len() as f64;
        let expected = site.residual_mean();
        assert!(
            (mean - expected).abs() < 0.35 * expected + 0.01,
            "{}: measured c {mean:.4} vs derived {expected:.4}",
            site.name()
        );
    }
}

#[test]
fn normalized_difference_stays_below_offset_on_average() {
    // E[X_n] = c < a = 0.35 at every site — the precondition for the
    // paper's universal parameters.
    for site in SiteProfile::all() {
        let xs = normalized_delta_series(&site, 3);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean < 0.2, "{}: mean X {mean}", site.name());
    }
}

#[test]
fn bidirectional_sites_have_higher_inbound_share() {
    use syndog_net::SegmentKind;
    use syndog_traffic::Direction;
    let mut rng = SimRng::seed_from_u64(5);
    let harvard = SiteProfile::harvard().generate_trace(&mut rng);
    let mut rng = SimRng::seed_from_u64(5);
    let unc = SiteProfile::unc().generate_trace(&mut rng);
    let inbound_syn_share = |trace: &syndog_traffic::Trace| {
        let total = trace
            .records()
            .iter()
            .filter(|r| r.kind == SegmentKind::Syn)
            .count();
        let inbound = trace
            .records()
            .iter()
            .filter(|r| r.kind == SegmentKind::Syn && r.direction == Direction::Inbound)
            .count();
        inbound as f64 / total.max(1) as f64
    };
    assert!(
        inbound_syn_share(&harvard) > 0.2,
        "Harvard inbound share too low"
    );
    assert!(inbound_syn_share(&unc) < 0.01, "UNC is uni-directional");
}

#[test]
fn retransmission_tail_is_visible_in_syn_excess() {
    // SYN retransmissions make the per-period SYN count exceed attempts;
    // at Auckland's loss rates the excess is ~10% — visible but bounded.
    let site = SiteProfile::auckland();
    let mut rng = SimRng::seed_from_u64(8);
    let counts = site.generate_period_counts(&mut rng);
    let syn: f64 = counts.iter().map(|c| c.syn as f64).sum();
    let synack: f64 = counts.iter().map(|c| c.synack as f64).sum();
    let ratio = syn / synack;
    assert!((1.05..1.20).contains(&ratio), "SYN:SYN/ACK ratio {ratio}");
}

#[test]
fn arrival_volume_is_stable_across_seeds() {
    // The site profiles must not have heavy-tailed *total volume* — the
    // calibration holds for every seed, not on average.
    let site = SiteProfile::unc();
    let expected = site.expected_k();
    for seed in 0..10 {
        let mut rng = SimRng::seed_from_u64(seed);
        let counts = site.generate_period_counts(&mut rng);
        let mean_synack: f64 =
            counts.iter().map(|c| c.synack as f64).sum::<f64>() / counts.len() as f64;
        assert!(
            (mean_synack / expected - 1.0).abs() < 0.25,
            "seed {seed}: K {mean_synack} vs {expected}"
        );
    }
}
