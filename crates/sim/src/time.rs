//! Simulation time newtypes.
//!
//! Simulated time is a `u64` count of microseconds from the start of the
//! run. Wrapping both instants ([`SimTime`]) and spans ([`SimDuration`]) in
//! newtypes keeps "20 seconds" (an observation period) from ever being
//! confused with "20 seconds into the trace".
//!
//! Fractional seconds round to the nearest microsecond exactly as
//! `f64::round` does, but the rounding is written out: trace and count
//! generation convert every segment time, and on x86-64 without SSE4.1
//! `f64::round` is a libm call, as costly as the `ln` of a draw.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// Microseconds per second.
const MICROS_PER_SEC: u64 = 1_000_000;

/// `2^52`: below it an `f64`'s fractional part is exact, and from it on
/// every `f64` is a whole number.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Equal to `micros.round() as u64` for every `f64`: ties round away from
/// zero, negatives and NaN give 0, values past `u64::MAX` saturate.
///
/// Below `2^52` the fraction left by truncation is exact, so one compare
/// rounds it without a branch. (`(x + 0.5) as u64` is wrong at
/// 0.49999999999999994, where the sum rounds up to 1, and at odd whole
/// numbers above `2^52`; a branch on the fraction mispredicts half the
/// time.) From `2^52` on, `micros` is already whole and the cold `round`
/// only saturates.
#[inline]
fn round_micros(micros: f64) -> u64 {
    let micros = micros.max(0.0);
    if micros < TWO_POW_52 {
        let whole = micros as i64;
        whole as u64 + u64::from(micros - whole as f64 >= 0.5)
    } else {
        micros.round() as u64
    }
}

/// An instant in simulated time, measured from the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time far past any experiment's horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// microsecond. Negative values clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(round_micros(secs * MICROS_PER_SEC as f64))
    }

    /// The instant as whole microseconds.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// The instant as fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is
    /// actually later.
    pub fn saturating_since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The index of the observation period containing this instant, for a
    /// period of length `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[inline]
    pub fn period_index(&self, period: SimDuration) -> u64 {
        assert!(period.0 > 0, "observation period must be non-zero");
        self.0 / period.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// microsecond. Negative values clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(round_micros(secs * MICROS_PER_SEC as f64))
    }

    /// The span as whole microseconds.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Returns `true` for the zero-length span.
    pub const fn is_zero(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "subtracting a later SimTime");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(3), SimTime::from_micros(3_000_000));
        assert_eq!(
            SimDuration::from_millis(1500),
            SimDuration::from_secs_f64(1.5)
        );
        assert_eq!(SimTime::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn negative_fractional_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-5.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    /// The reference conversion, through `f64::round`.
    fn reference_micros(secs: f64) -> u64 {
        (secs.max(0.0) * MICROS_PER_SEC as f64).round() as u64
    }

    fn assert_rounds_like_libm(micros: f64) {
        assert_eq!(round_micros(micros), micros.round() as u64, "{micros:e}");
        let secs = micros / MICROS_PER_SEC as f64;
        let want = reference_micros(secs);
        assert_eq!(SimTime::from_secs_f64(secs).as_micros(), want, "{secs:e} s");
        assert_eq!(
            SimDuration::from_secs_f64(secs).as_micros(),
            want,
            "{secs:e} s"
        );
    }

    #[test]
    fn rounding_equals_libm_round_at_the_edges() {
        let mut cases = vec![
            0.499_999_999_999_999_94,
            TWO_POW_52 - 0.5,
            TWO_POW_52 - 1.5,
            TWO_POW_52,
            TWO_POW_52 + 1.0,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            2f64.powi(64),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.0,
            0.0,
            -0.5,
            -1.5,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            -f64::from_bits(1),
        ];
        // Ties k + 0.5 and their neighbours, small and large.
        for k in (0u64..64).chain([999_999, 1 << 30, (1 << 51) - 1]) {
            let tie = k as f64 + 0.5;
            cases.extend([tie, tie.next_up(), tie.next_down(), -tie]);
        }
        for micros in cases {
            assert_rounds_like_libm(micros);
        }
    }

    proptest! {
        #[test]
        fn rounding_equals_libm_round_for_any_bits(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            assert_rounds_like_libm(x);
            prop_assert_eq!(SimTime::from_secs_f64(x).as_micros(), reference_micros(x));
            prop_assert_eq!(SimDuration::from_secs_f64(x).as_micros(), reference_micros(x));
        }

        #[test]
        fn rounding_equals_libm_round_on_trace_times(micros in 0.0f64..1e13) {
            assert_rounds_like_libm(micros);
        }
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(SimDuration::from_secs(4) / 2, SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(4) * 3, SimDuration::from_secs(12));
        assert_eq!(SimDuration::from_secs(4) * 0.5, SimDuration::from_secs(2));
    }

    #[test]
    fn saturating_since_handles_reversed_order() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn period_index_buckets_time() {
        let period = SimDuration::from_secs(20);
        assert_eq!(SimTime::from_secs(0).period_index(period), 0);
        assert_eq!(SimTime::from_secs(19).period_index(period), 0);
        assert_eq!(SimTime::from_secs(20).period_index(period), 1);
        assert_eq!(SimTime::from_secs(200).period_index(period), 10);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn period_index_rejects_zero_period() {
        let _ = SimTime::from_secs(1).period_index(SimDuration::ZERO);
    }

    #[test]
    fn display_formats_as_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.5).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_millis(20).to_string(), "0.020000s");
    }

    #[test]
    fn ordering_is_chronological() {
        let mut times = vec![SimTime::from_secs(3), SimTime::ZERO, SimTime::from_secs(1)];
        times.sort();
        assert_eq!(
            times,
            vec![SimTime::ZERO, SimTime::from_secs(1), SimTime::from_secs(3)]
        );
    }
}
