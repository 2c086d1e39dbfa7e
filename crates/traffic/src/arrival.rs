//! Connection-arrival models.
//!
//! §3.2 of the paper stresses that "there is no consensus on whether
//! [TCP connection arrivals] should be modeled as self-similar or Poisson",
//! which is exactly why SYN-dog is non-parametric. To honor that, the
//! evaluation can drive the detector with several qualitatively different
//! arrival models:
//!
//! - [`PoissonArrivals`] — the classical memoryless baseline,
//! - [`MmppArrivals`] — a Markov-modulated Poisson process whose state
//!   switches create burstiness on the timescale of its dwell times,
//! - [`ParetoOnOffArrivals`] — a superposition of heavy-tailed on/off
//!   sources, the standard construction of self-similar traffic (validated
//!   by a Hurst-exponent test),
//! - [`DiurnalArrivals`] — any base model modulated by a time-of-day
//!   profile, for the slow large-timescale variation the paper notes.
//!
//! All models generate full arrival *timestamp* sequences so the handshake
//! simulator can place every SYN precisely; all randomness flows through a
//! caller-provided [`SimRng`].

use syndog_sim::{SimDuration, SimRng, SimTime};

/// A model that generates TCP connection start times over an interval.
pub trait ArrivalModel {
    /// Generates the sorted arrival times in `[0, duration)`.
    fn generate(&self, duration: SimDuration, rng: &mut SimRng) -> Vec<SimTime>;

    /// The long-run mean arrival rate in connections per second.
    fn mean_rate(&self) -> f64;
}

/// Homogeneous Poisson arrivals at a fixed rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    rate: f64,
}

impl PoissonArrivals {
    /// Creates a process with the given rate (connections per second).
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is non-negative and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate >= 0.0 && rate.is_finite(),
            "rate must be non-negative, got {rate}"
        );
        PoissonArrivals { rate }
    }
}

impl ArrivalModel for PoissonArrivals {
    fn generate(&self, duration: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        let mut arrivals = Vec::new();
        if self.rate == 0.0 {
            return arrivals;
        }
        let horizon = duration.as_secs_f64();
        let mut t = 0.0;
        loop {
            t += rng.exponential(self.rate);
            if t >= horizon {
                return arrivals;
            }
            arrivals.push(SimTime::from_secs_f64(t));
        }
    }

    fn mean_rate(&self) -> f64 {
        self.rate
    }
}

/// A Markov-modulated Poisson process: the rate follows a continuous-time
/// Markov chain over a finite set of states.
#[derive(Debug, Clone, PartialEq)]
pub struct MmppArrivals {
    /// `(rate, mean dwell seconds)` per state.
    states: Vec<(f64, f64)>,
}

impl MmppArrivals {
    /// Creates a process from `(rate, mean_dwell_secs)` states; the chain
    /// moves uniformly at random among the *other* states when a dwell
    /// expires.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two states are given, or any rate is negative,
    /// or any dwell is non-positive.
    pub fn new(states: Vec<(f64, f64)>) -> Self {
        assert!(states.len() >= 2, "mmpp needs at least two states");
        for &(rate, dwell) in &states {
            assert!(rate >= 0.0, "negative mmpp rate {rate}");
            assert!(dwell > 0.0, "non-positive mmpp dwell {dwell}");
        }
        MmppArrivals { states }
    }

    /// A convenient two-state burst model: `base_rate` most of the time,
    /// `burst_multiplier × base_rate` during bursts.
    pub fn bursty(base_rate: f64, burst_multiplier: f64, dwell_secs: f64, burst_secs: f64) -> Self {
        Self::new(vec![
            (base_rate, dwell_secs),
            (base_rate * burst_multiplier, burst_secs),
        ])
    }
}

impl ArrivalModel for MmppArrivals {
    fn generate(&self, duration: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        let horizon = duration.as_secs_f64();
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        let mut state = rng.uniform_u64(0, self.states.len() as u64) as usize;
        while t < horizon {
            let (rate, dwell) = self.states[state];
            let segment_end = (t + rng.exponential(1.0 / dwell)).min(horizon);
            if rate > 0.0 {
                let mut at = t;
                loop {
                    at += rng.exponential(rate);
                    if at >= segment_end {
                        break;
                    }
                    arrivals.push(SimTime::from_secs_f64(at));
                }
            }
            t = segment_end;
            // Jump to one of the other states, uniformly.
            let step = 1 + rng.uniform_u64(0, self.states.len() as u64 - 1) as usize;
            state = (state + step) % self.states.len();
        }
        arrivals
    }

    fn mean_rate(&self) -> f64 {
        // Dwell-weighted average rate (uniform jump chain ⇒ stationary
        // probability proportional to dwell).
        let total_dwell: f64 = self.states.iter().map(|&(_, d)| d).sum();
        self.states.iter().map(|&(r, d)| r * d).sum::<f64>() / total_dwell
    }
}

/// A superposition of heavy-tailed on/off sources: each source alternates
/// Pareto-distributed ON and OFF periods and emits Poisson arrivals at
/// `peak_rate` while ON. With tail index `1 < α < 2` the aggregate is
/// asymptotically self-similar (Hurst `H = (3 − α) / 2`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoOnOffArrivals {
    sources: usize,
    peak_rate: f64,
    mean_on_secs: f64,
    mean_off_secs: f64,
    alpha: f64,
}

impl ParetoOnOffArrivals {
    /// Creates a superposition of `sources` identical on/off sources.
    ///
    /// `peak_rate` is each source's arrival rate while ON; `mean_on_secs`
    /// and `mean_off_secs` set the Pareto scale so the means match; `alpha`
    /// is the shared tail index.
    ///
    /// # Panics
    ///
    /// Panics on zero sources, non-positive rates or means, or
    /// `alpha <= 1` (infinite-mean periods make the requested means
    /// unachievable).
    pub fn new(
        sources: usize,
        peak_rate: f64,
        mean_on_secs: f64,
        mean_off_secs: f64,
        alpha: f64,
    ) -> Self {
        assert!(sources > 0, "need at least one source");
        assert!(
            peak_rate > 0.0,
            "peak rate must be positive, got {peak_rate}"
        );
        assert!(
            mean_on_secs > 0.0 && mean_off_secs > 0.0,
            "period means must be positive"
        );
        assert!(
            alpha > 1.0,
            "alpha must exceed 1 for finite means, got {alpha}"
        );
        ParetoOnOffArrivals {
            sources,
            peak_rate,
            mean_on_secs,
            mean_off_secs,
            alpha,
        }
    }

    fn pareto_scale(&self, mean: f64) -> f64 {
        // Pareto mean = α·xm/(α−1) ⇒ xm = mean·(α−1)/α.
        mean * (self.alpha - 1.0) / self.alpha
    }
}

impl ArrivalModel for ParetoOnOffArrivals {
    fn generate(&self, duration: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        let horizon = duration.as_secs_f64();
        let on_scale = self.pareto_scale(self.mean_on_secs);
        let off_scale = self.pareto_scale(self.mean_off_secs);
        let duty = self.mean_on_secs / (self.mean_on_secs + self.mean_off_secs);
        let mut arrivals = Vec::new();
        for _ in 0..self.sources {
            // Random initial phase: start ON with the duty-cycle
            // probability.
            let mut on = rng.chance(duty);
            let mut t = 0.0;
            while t < horizon {
                let length = if on {
                    rng.pareto(on_scale, self.alpha)
                } else {
                    rng.pareto(off_scale, self.alpha)
                };
                let segment_end = (t + length).min(horizon);
                if on {
                    let mut at = t;
                    loop {
                        at += rng.exponential(self.peak_rate);
                        if at >= segment_end {
                            break;
                        }
                        arrivals.push(SimTime::from_secs_f64(at));
                    }
                }
                t = segment_end;
                on = !on;
            }
        }
        arrivals.sort_unstable();
        arrivals
    }

    fn mean_rate(&self) -> f64 {
        let duty = self.mean_on_secs / (self.mean_on_secs + self.mean_off_secs);
        self.sources as f64 * self.peak_rate * duty
    }
}

/// Wraps a base model with a sinusoidal time-of-day modulation applied by
/// thinning: arrivals are kept with probability
/// `1 + depth·sin(2π(t + phase)/period)` normalized to ≤ 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalArrivals<M> {
    base: M,
    depth: f64,
    period_secs: f64,
    phase_secs: f64,
}

impl<M: ArrivalModel> DiurnalArrivals<M> {
    /// Modulates `base` with relative amplitude `depth` in `[0, 1)` and the
    /// given cycle period. The base model should be over-provisioned by
    /// `1/(1 − depth)` if the peak rate matters.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ depth < 1` and `period_secs > 0`.
    pub fn new(base: M, depth: f64, period_secs: f64, phase_secs: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&depth),
            "depth must lie in [0, 1), got {depth}"
        );
        assert!(
            period_secs > 0.0,
            "period must be positive, got {period_secs}"
        );
        DiurnalArrivals {
            base,
            depth,
            period_secs,
            phase_secs,
        }
    }
}

impl<M: ArrivalModel> ArrivalModel for DiurnalArrivals<M> {
    fn generate(&self, duration: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        self.base
            .generate(duration, rng)
            .into_iter()
            .filter(|t| {
                let phase = (t.as_secs_f64() + self.phase_secs) / self.period_secs;
                let factor =
                    (1.0 + self.depth * (std::f64::consts::TAU * phase).sin()) / (1.0 + self.depth);
                rng.chance(factor)
            })
            .collect()
    }

    fn mean_rate(&self) -> f64 {
        self.base.mean_rate() / (1.0 + self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn poisson_rate_and_sortedness() {
        let mut rng = SimRng::seed_from_u64(1);
        let model = PoissonArrivals::new(50.0);
        let arrivals = model.generate(SimDuration::from_secs(200), &mut rng);
        let rate = arrivals.len() as f64 / 200.0;
        assert!((rate - 50.0).abs() < 2.0, "rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|t| t.as_secs_f64() < 200.0));
        assert_eq!(model.mean_rate(), 50.0);
    }

    #[test]
    fn poisson_zero_rate_is_silent() {
        let mut rng = SimRng::seed_from_u64(2);
        let arrivals = PoissonArrivals::new(0.0).generate(SimDuration::from_secs(100), &mut rng);
        assert!(arrivals.is_empty());
    }

    #[test]
    fn mmpp_mean_rate_matches_dwell_weighting() {
        let mut rng = SimRng::seed_from_u64(4);
        let model = MmppArrivals::bursty(20.0, 5.0, 30.0, 10.0);
        // Stationary mean = (20·30 + 100·10)/40 = 40.
        assert!((model.mean_rate() - 40.0).abs() < 1e-9);
        let arrivals = model.generate(SimDuration::from_secs(4000), &mut rng);
        let rate = arrivals.len() as f64 / 4000.0;
        assert!((rate - 40.0).abs() < 4.0, "rate {rate}");
    }

    #[test]
    fn diurnal_modulation_shifts_volume_across_the_cycle() {
        let mut rng = SimRng::seed_from_u64(8);
        let model = DiurnalArrivals::new(PoissonArrivals::new(100.0), 0.6, 1000.0, 0.0);
        let arrivals = model.generate(SimDuration::from_secs(1000), &mut rng);
        let bins = bin_per_second(&arrivals, 1000);
        // First half-cycle (sin > 0) must carry more than the second.
        let first: f64 = bins[..500].iter().sum();
        let second: f64 = bins[500..].iter().sum();
        assert!(first > second * 1.5, "first {first}, second {second}");
        assert!((model.mean_rate() - 62.5).abs() < 1e-9);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let model = MmppArrivals::bursty(20.0, 4.0, 30.0, 10.0);
        let a = model.generate(SimDuration::from_secs(100), &mut SimRng::seed_from_u64(99));
        let b = model.generate(SimDuration::from_secs(100), &mut SimRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn pareto_on_off_rejects_infinite_mean() {
        let _ = ParetoOnOffArrivals::new(8, 1.0, 1.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "two states")]
    fn mmpp_rejects_single_state() {
        let _ = MmppArrivals::new(vec![(1.0, 1.0)]);
    }
}
