//! Seeded randomness and the distributions the traffic models draw from.
//!
//! Everything random in a simulation flows through a [`SimRng`] created
//! from an explicit seed, so any experiment is reproducible bit-for-bit.
//! The distributions are implemented directly (inverse transform for
//! exponential and Pareto, Box–Muller for normal/log-normal) rather than
//! pulling in `rand_distr`; each is validated statistically in the tests.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator for simulations.
///
/// Wraps [`StdRng`]; cloning is deliberately not provided so two components
/// can't accidentally share a stream — seed each consumer its own
/// generator instead (e.g. the run seed mixed with the stub's index).
pub struct SimRng {
    inner: StdRng,
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRng").finish_non_exhaustive()
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// A uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniform draw in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform_range(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "empty uniform range [{low}, {high})");
        low + (high - low) * self.uniform()
    }

    /// A uniform integer draw in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "empty uniform range [{low}, {high})");
        self.inner.gen_range(low..high)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// An exponential draw with the given rate (mean `1/rate`), by inverse
    /// transform.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        // 1 - U avoids ln(0).
        -(1.0 - self.uniform()).ln() / rate
    }

    /// A standard normal draw via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        box_muller(1.0 - self.uniform(), self.uniform())
    }

    /// A normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative standard deviation {std_dev}");
        mean + std_dev * self.standard_normal()
    }

    /// A draw from `dist` that takes its uniforms now, as computing the
    /// value would, but computes it only in [`LogNormalDraw::value`].
    #[inline]
    pub fn log_normal_draw(&mut self, dist: &LogNormal) -> LogNormalDraw {
        LogNormalDraw {
            dist: *dist,
            u1: 1.0 - self.uniform(),
            u2: self.uniform(),
        }
    }

    /// A Pareto draw with scale `xm > 0` and shape `alpha > 0`, by inverse
    /// transform. Heavy-tailed on/off periods with `1 < alpha < 2` are what
    /// make the superposed traffic self-similar.
    ///
    /// # Panics
    ///
    /// Panics unless `xm > 0` and `alpha > 0`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(xm > 0.0, "pareto scale must be positive, got {xm}");
        assert!(alpha > 0.0, "pareto shape must be positive, got {alpha}");
        xm / (1.0 - self.uniform()).powf(1.0 / alpha)
    }

    /// A Poisson draw with the given mean, via Knuth's product method for
    /// small means and normal approximation above 100 (where the error is
    /// far below the traffic models' calibration tolerance).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "negative poisson mean {mean}");
        if mean == 0.0 {
            return 0;
        }
        if mean > 100.0 {
            let draw = self.normal(mean, mean.sqrt());
            return draw.round().max(0.0) as u64;
        }
        let threshold = (-mean).exp();
        let mut count = 0u64;
        let mut product = self.uniform();
        while product > threshold {
            count += 1;
            product *= self.uniform();
        }
        count
    }

    /// A full-range random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
}

/// A bound on every Box–Muller magnitude: the largest is
/// `sqrt(-2 ln 2^-53) ≈ 8.5716`, reached when `1 - U` takes its least value.
const BOX_MULLER_BOUND: f64 = 8.6;

/// `e^-4.5`: a draw with `u1 = 1 - U` at or above it has
/// `|z| ≤ sqrt(-2 ln u1) ≤ 3`, which is 98.9% of draws.
const CLEAN_U1: f64 = 0.011_108_996_538_242_306;

/// A bound on the Box–Muller magnitude of a draw with `u1 ≥ CLEAN_U1`: 3,
/// plus room for the ulps of `ln`, `sqrt`, `cos` and `exp`, as 8.6 leaves
/// room above 8.5716.
const CLEAN_BOUND: f64 = 3.01;

/// Box–Muller of `u1 = 1 - U ∈ [2^-53, 1]`, which keeps `ln(0)` out, and `u2 = U`.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The log-normal distribution of `exp(mu + sigma·z)`, `z` standard normal.
/// Used for per-connection RTTs, which are well modeled as log-normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
    clean_max: f64,
    max: f64,
}

impl LogNormal {
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "negative sigma {sigma}");
        LogNormal {
            mu,
            sigma,
            clean_max: (mu + sigma * CLEAN_BOUND).exp(),
            max: (mu + sigma * BOX_MULLER_BOUND).exp(),
        }
    }
}

/// A log-normal draw whose randomness is taken but whose value is not yet
/// computed (see [`SimRng::log_normal_draw`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalDraw {
    dist: LogNormal,
    u1: f64,
    u2: f64,
}

impl LogNormalDraw {
    /// The drawn value, `exp(mu + sigma·z)`.
    pub fn value(&self) -> f64 {
        (self.dist.mu + self.dist.sigma * box_muller(self.u1, self.u2)).exp()
    }

    /// An upper bound on [`LogNormalDraw::value`], found with one compare
    /// on the drawn `u1`: `exp(mu + sigma·3.01)` when `u1 ≥ e^-4.5`, else
    /// `exp(mu + sigma·8.6)`. Both are computed once by [`LogNormal::new`].
    #[inline]
    pub fn max(&self) -> f64 {
        if self.u1 >= CLEAN_U1 {
            self.dist.clean_max
        } else {
            self.dist.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    fn var_of(samples: &[f64]) -> f64 {
        let m = mean_of(samples);
        samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (samples.len() - 1) as f64
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.exponential(4.0)).collect();
        let mean = mean_of(&samples);
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.normal(10.0, 3.0)).collect();
        assert!((mean_of(&samples) - 10.0).abs() < 0.1);
        assert!((var_of(&samples).sqrt() - 3.0).abs() < 0.1);
    }

    #[test]
    fn log_normal_is_positive_with_right_median() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut samples: Vec<f64> = (0..20_001)
            .map(|_| rng.log_normal_draw(&LogNormal::new(0.0, 1.0)).value())
            .collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}"); // e^mu = 1
    }

    #[test]
    fn lazy_draws_equal_the_eager_formulas_bit_for_bit() {
        let (mut lazy, mut eager) = (SimRng::seed_from_u64(12), SimRng::seed_from_u64(12));
        let old_z = |rng: &mut SimRng| {
            let u1 = 1.0 - rng.uniform();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * rng.uniform()).cos()
        };
        for i in 0..10_000 {
            let (mu, sigma) = (f64::from(i % 7) - 4.0, f64::from(i % 5) * 0.4);
            let draw = lazy.log_normal_draw(&LogNormal::new(mu, sigma));
            let old = (mu + sigma * old_z(&mut eager)).exp();
            assert_eq!(draw.value().to_bits(), old.to_bits());
            assert!(draw.value() <= draw.max());
            let z = lazy.standard_normal();
            assert_eq!(z.to_bits(), old_z(&mut eager).to_bits());
        }
        assert_eq!(lazy.uniform().to_bits(), eager.uniform().to_bits());
    }

    #[test]
    fn the_bound_covers_the_extreme_draw_with_little_to_spare() {
        // The least 1 - U is 2^-53; cos(0) and cos(π) give ±1.
        let u1 = 1.0 - (u64::MAX >> 11) as f64 * 2f64.powi(-53);
        for z in [box_muller(u1, 0.0), box_muller(u1, 0.5)] {
            let spare = BOX_MULLER_BOUND - z.abs();
            assert!((0.0..0.1).contains(&spare), "|z| = {}", z.abs());
        }
    }

    #[test]
    fn the_clean_bound_covers_every_draw_near_its_threshold() {
        let mut rng = SimRng::seed_from_u64(13);
        let mut u1 = CLEAN_U1;
        for _ in 0..8 {
            u1 = u1.next_down();
        }
        for _ in 0..17 {
            let mut u2s = vec![0.0, 0.25, 0.5, 1.0 - 2f64.powi(-53)];
            u2s.extend((0..64).map(|_| rng.uniform()));
            for u2 in u2s {
                for (mu, sigma) in [((0.12f64).ln(), 0.35), (0.0, 1.0), (-6.0, 2.0)] {
                    let draw = LogNormalDraw {
                        dist: LogNormal::new(mu, sigma),
                        u1,
                        u2,
                    };
                    assert!(draw.value() <= draw.max(), "u1 {u1:e}, u2 {u2}");
                }
                if u1 >= CLEAN_U1 {
                    assert!(box_muller(u1, u2).abs() <= CLEAN_BOUND);
                }
            }
            u1 = u1.next_up();
        }
        // Across the whole range of u1, at cos = ±1 and at random angles.
        for k in 0..=5_300 {
            let u1 = 2f64.powf(-f64::from(k) / 100.0);
            for u2 in [0.0, 0.5, rng.uniform()] {
                let draw = LogNormalDraw {
                    dist: LogNormal::new(0.0, 1.0),
                    u1,
                    u2,
                };
                assert!(draw.value() <= draw.max(), "u1 {u1:e}, u2 {u2}");
            }
        }
        // The threshold is e^-4.5 to the ulp, so |z| reaches 3 just above it.
        assert_eq!(CLEAN_U1, (-4.5f64).exp());
        let spare = CLEAN_BOUND - box_muller(CLEAN_U1, 0.0);
        assert!((0.0..0.011).contains(&spare), "spare {spare}");
    }

    #[test]
    #[should_panic(expected = "negative sigma")]
    fn log_normal_rejects_negative_sigma() {
        LogNormal::new(0.0, -0.1);
    }

    #[test]
    fn pareto_minimum_and_mean() {
        let mut rng = SimRng::seed_from_u64(6);
        let (xm, alpha) = (2.0, 3.0);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.pareto(xm, alpha)).collect();
        assert!(samples.iter().all(|&x| x >= xm));
        // Mean of Pareto = alpha*xm/(alpha-1) = 3 for these parameters.
        assert!((mean_of(&samples) - 3.0).abs() < 0.05);
    }

    #[test]
    fn poisson_small_mean_moments() {
        let mut rng = SimRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.poisson(3.5) as f64).collect();
        assert!((mean_of(&samples) - 3.5).abs() < 0.06);
        // Poisson variance equals its mean.
        assert!((var_of(&samples) - 3.5).abs() < 0.15);
    }

    #[test]
    fn poisson_large_mean_uses_normal_approximation() {
        let mut rng = SimRng::seed_from_u64(8);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.poisson(2000.0) as f64).collect();
        assert!((mean_of(&samples) - 2000.0).abs() < 2.0);
        assert!((var_of(&samples) / 2000.0 - 1.0).abs() < 0.1);
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = SimRng::seed_from_u64(9);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn chance_frequencies() {
        let mut rng = SimRng::seed_from_u64(10);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities clamp instead of panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..1000 {
            let x = rng.uniform_range(-5.0, 5.0);
            assert!((-5.0..5.0).contains(&x));
            let n = rng.uniform_u64(10, 20);
            assert!((10..20).contains(&n));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        SimRng::seed_from_u64(0).exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "empty uniform range")]
    fn uniform_range_rejects_inverted_bounds() {
        SimRng::seed_from_u64(0).uniform_range(1.0, 1.0);
    }
}
